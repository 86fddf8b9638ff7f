package main

import (
	"fmt"
	"time"
)

// phases lists the round phases the traced run attributes host time to.
var phases = []string{"formation", "roster", "exchange", "assembly", "announce", "repair"}

// traceRounds is the traced variant of the round workloads. Rounds
// alternate untraced and traced — on round-cold the pair shares a seed —
// so the run measures the tracing overhead and proves tracing passive: a
// traced round must simulate exactly what its untraced twin did.
func traceRounds(rep *report, rs *roundSim, seeds []int64, formation *probe, dur time.Duration) error {
	epoch := rs.prot != nil
	led := newRoundLedger()
	var plain, traced []float64
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	var sizes []int
	if formation != nil {
		sizes = formation.rosters
	}
	deadline := time.Now().Add(dur)
	for i := 0; i < 2*digestRounds || time.Now().Before(deadline); i++ {
		seed := seeds[(i/2)%digestRounds]
		if i%2 == 0 {
			o, err := rs.round(seed, nil)
			led.add(seed, !epoch, o, err)
			if err != nil {
				break
			}
			plain = append(plain, o.dur.Seconds())
			continue
		}
		p := newProbe()
		var o roundOut
		var err error
		if epoch {
			p.attach(rs.env)
			o, err = rs.round(seed, nil)
		} else {
			// Reset replaces the key scheme, so the wrapper goes on after it.
			o, err = rs.round(seed, func() { p.attach(rs.env) })
		}
		p.detach(rs.env)
		led.add(seed, !epoch, o, err)
		if err != nil {
			break
		}
		traced = append(traced, o.dur.Seconds())
		if sizes == nil {
			sizes = p.rosters
		}

		add("wsn.reset_s", o.reset.Seconds())
		add("wsncrypto.linkkey_calls", float64(p.keyCalls))
		add("wsncrypto.linkkey_s", p.keyTime.Seconds())
		add("wsncrypto.sealed_frames", float64(p.sealed))
		ns, open, seal, err := cryptoReplay(p.keys, p.sealedCap)
		if err != nil {
			return err
		}
		add("wsncrypto.newsealer_ns", ns)
		add("wsncrypto.open_ns", open)
		add("wsncrypto.seal_ns", seal)
		add("message.frames", float64(p.frames))
		add("message.bytes_per_frame", float64(p.frameBytes)/float64(max(p.frames, 1)))
		m, u, err := codecReplay(p.captured)
		if err != nil {
			return err
		}
		add("message.marshal_ns", m)
		add("message.unmarshal_ns", u)
		add("sim.events", float64(o.sim.events))
		add("sim.ns_per_event", float64((o.dur-o.reset).Nanoseconds())/float64(max(o.sim.events, 1)))
		add("radio.tx_frames", float64(o.sim.traffic.TxMessages))
		add("radio.collisions", float64(o.sim.traffic.Collisions))
		add("radio.drops.collision", float64(p.drops["collision"]))
		add("mac.retx", float64(o.sim.retx))
		add("mac.acks", float64(o.sim.acks))
		add("mac.queue_drops", float64(o.sim.drops))
		add("mac.delivered", float64(p.delivered))
		add("mac.useful_ratio", float64(p.delivered)/float64(max(o.sim.traffic.AppMessages, 1)))
		spans := p.phaseSpans(o.start, o.start.Add(o.reset), o.start.Add(o.dur))
		byPhase := map[string]float64{}
		for _, s := range spans[1:] {
			byPhase[s.Name] += (s.End - s.Start).Seconds()
		}
		for _, ph := range phases {
			add("core.phase_s."+ph, byPhase["phase:"+ph])
		}
		add("core.phase_uncovered_s", selfTimes(spans)[0].Seconds())
		add("core.clusters", float64(len(p.clusters)))
		add("core.degraded", float64(o.res.DegradedClusters))
		add("core.failed", float64(o.res.FailedClusters))
		rep.detail("drops_by_cause", p.drops)
	}
	rep.Attempted = led.attempted
	rep.Failures = append(rep.Failures, led.failures...)
	rep.Digest = led.digestHex()
	if len(traced) == 0 || len(plain) == 0 {
		return fmt.Errorf("traced run finished no traced round")
	}
	for name, xs := range per {
		rep.set(name, median(xs), "") // unit from BENCHMARK.json
	}
	for _, w := range []int{1, 16} {
		ns, err := sharesReplay(sizes, w)
		if err != nil {
			return err
		}
		rep.set(fmt.Sprintf("shares.recover_ns.w%d", w), ns, "ns")
	}
	rep.set("bench.trace_overhead", median(traced)/median(plain)-1, "ratio")
	rep.detail("traced_rounds", len(traced))
	rep.detail("cluster_sizes", histogram(sizes))
	return nil
}

// histogram counts the occurrences of each value.
func histogram(xs []int) map[int]int {
	h := map[int]int{}
	for _, x := range xs {
		h[x]++
	}
	return h
}
