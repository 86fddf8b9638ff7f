package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wsn"
)

// roundNodes is the deployment size of both round workloads.
const roundNodes = 10_000

// digestRounds is how many rounds (distinct seeds on round-cold, the first
// epochs on round-epoch) enter the digest and the simulated metrics, so
// that those repeat exactly for a seed whatever the run length.
const digestRounds = 8

// Set-up runs several times and setup_s is the median: 31 times on
// round-cold, where it only places the network, three on round-epoch,
// where it also runs the formation round.
const (
	coldSetupRepeats  = 31
	epochSetupRepeats = 3
)

// fieldSide is the square field side holding n nodes at the papers'
// reference density (400 nodes on 400 m × 400 m).
func fieldSide(n int) float64 { return 400 * math.Sqrt(float64(n)/400) }

// scaleHops bounds the announce depth for n nodes at the reference density:
// the field diagonal in 50 m hops plus slack, as the repository's
// BenchmarkRound sets it.
func scaleHops(n int) int { return int(fieldSide(n)*math.Sqrt2/50) + 8 }

// roundSim is one n=10k deployment and the protocol configuration both
// round workloads run on it.
type roundSim struct {
	env  *wsn.Env
	cfg  core.Config
	prot *core.Protocol // the retained formation (round-epoch only)
	next uint16         // next epoch's round number
}

// newRoundSim deploys the network; on round-epoch it also runs the
// formation round, observed by formation when that is set.
func newRoundSim(deploySeed int64, epoch bool, formation *probe) (*roundSim, error) {
	wcfg := wsn.DefaultConfig(roundNodes, deploySeed)
	wcfg.FieldSize = fieldSide(roundNodes)
	env, err := wsn.NewEnv(wcfg)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.MaxHops = scaleHops(roundNodes)
	rs := &roundSim{env: env, cfg: cfg}
	if epoch {
		if rs.prot, err = core.New(env, cfg); err != nil {
			return nil, err
		}
		if formation != nil {
			formation.attach(env)
		}
		res, err := rs.prot.Run(1)
		if formation != nil {
			formation.detach(env)
		}
		if err != nil {
			return nil, fmt.Errorf("formation round: %w", err)
		}
		if err := roundGate(res); err != nil {
			return nil, fmt.Errorf("formation round: %w", err)
		}
		rs.next = 2
	}
	return rs, nil
}

// counters is a snapshot of the simulated radio/MAC/engine counts.
type counters struct {
	events  uint64
	traffic metrics.Traffic
	retx    int
	acks    int
	drops   int
}

func (rs *roundSim) counters() counters {
	return counters{
		events:  rs.env.Eng.Processed(),
		traffic: rs.env.Rec.Traffic(),
		retx:    rs.env.MAC.Retransmissions(),
		acks:    rs.env.MAC.AcksSent(),
		drops:   rs.env.MAC.Drops(),
	}
}

func (c counters) sub(o counters) counters {
	t := c.traffic
	t.TxBytes -= o.traffic.TxBytes
	t.RxBytes -= o.traffic.RxBytes
	t.TxMessages -= o.traffic.TxMessages
	t.RxMessages -= o.traffic.RxMessages
	t.AppMessages -= o.traffic.AppMessages
	t.Collisions -= o.traffic.Collisions
	t.Dropped -= o.traffic.Dropped
	return counters{c.events - o.events, t, c.retx - o.retx, c.acks - o.acks, c.drops - o.drops}
}

// roundOut is what one round leaves behind.
type roundOut struct {
	res   metrics.RoundResult
	dur   time.Duration // host time of the round, Reset included on round-cold
	cpu   time.Duration // process CPU time over the same interval
	reset time.Duration // host time of the Reset alone
	sim   counters      // simulated counts of this round alone
	start time.Time
}

// key is the round's simulated identity: its result and every simulated
// count. A speed-only change to the program leaves it unchanged.
func (o roundOut) key() string {
	return fmt.Sprintf("%+v|%+v", o.res, o.sim)
}

// round runs one round: Reset(seed) then a fresh protocol's Run on
// round-cold, ResampleReadings then RunRetaining on round-epoch. before,
// when set, runs between the Reset and the protocol (the traced run
// installs its key-scheme wrapper there) and is timed with the round.
func (rs *roundSim) round(seed int64, before func()) (roundOut, error) {
	var out roundOut
	cpu0 := cpuTime()
	out.start = time.Now()
	var c0 counters
	var res metrics.RoundResult
	var err error
	if rs.prot == nil {
		err = rs.env.Reset(seed)
		out.reset = time.Since(out.start)
		c0 = rs.counters()
		if before != nil {
			before()
		}
		var p *core.Protocol
		if err == nil {
			p, err = core.New(rs.env, rs.cfg)
		}
		if err == nil {
			res, err = p.Run(1)
		}
	} else {
		c0 = rs.counters()
		if before != nil {
			before()
		}
		rs.env.ResampleReadings()
		// The wire round counter is 16 bits; wrap far below the limit.
		res, err = rs.prot.RunRetaining(rs.next)
		rs.next = 2 + (rs.next-1)%60_000
	}
	out.dur = time.Since(out.start)
	out.cpu = cpuTime() - cpu0
	out.res = res
	out.sim = rs.counters().sub(c0)
	if err != nil {
		return out, err
	}
	return out, roundGate(res)
}

// roundGate is the correctness gate every round must pass: an accepted,
// alarm-free round whose reported count matches its participants and
// whose reported sum lies within the reading range times that count.
func roundGate(r metrics.RoundResult) error {
	switch {
	case !r.Accepted:
		return fmt.Errorf("round rejected: %v", r)
	case r.Alarms != 0:
		return fmt.Errorf("round raised %d alarms: %v", r.Alarms, r)
	case r.ReportedCnt != int64(r.Participants):
		return fmt.Errorf("reported count %d != participants %d", r.ReportedCnt, r.Participants)
	case r.Participants == 0:
		return fmt.Errorf("no participants: %v", r)
	case r.ReportedSum < 10*r.ReportedCnt || r.ReportedSum > 100*r.ReportedCnt:
		return fmt.Errorf("reported sum %d outside [10, 100] × %d readings", r.ReportedSum, r.ReportedCnt)
	}
	return nil
}

// roundLedger accumulates one run's rounds: host times, the digest over
// the first digestRounds rounds, and the per-seed determinism check.
type roundLedger struct {
	durs      []float64 // seconds per round
	cpus      []float64 // CPU seconds per round
	events    []uint64  // simulated events per round
	bySeed    map[int64]string
	digest    hash.Hash
	bytes     []float64 // bytes on air per node, first digestRounds rounds
	particip  []float64 // participation, first digestRounds rounds
	attempted int
	failures  []string
}

func newRoundLedger() *roundLedger {
	return &roundLedger{bySeed: map[int64]string{}, digest: sha256.New()}
}

// add records a round. seedKeyed rounds (round-cold) are replays of a seed
// seen before once the cycle wraps; their simulated key must repeat.
func (l *roundLedger) add(seed int64, seedKeyed bool, o roundOut, err error) {
	l.attempted++
	if err != nil {
		l.failures = append(l.failures, err.Error())
		return
	}
	l.durs = append(l.durs, o.dur.Seconds())
	l.cpus = append(l.cpus, o.cpu.Seconds())
	l.events = append(l.events, o.sim.events)
	k := o.key()
	if seedKeyed {
		if prev, ok := l.bySeed[seed]; ok {
			if prev != k {
				l.failures = append(l.failures, fmt.Sprintf("seed %d replayed differently:\n  %s\n  %s", seed, prev, k))
			}
			return
		}
		l.bySeed[seed] = k
	}
	if len(l.bytes) < digestRounds {
		l.digest.Write([]byte(k))
		l.bytes = append(l.bytes, float64(o.res.TxBytes)/roundNodes)
		l.particip = append(l.particip, o.res.ParticipationRate())
	}
}

func (l *roundLedger) digestHex() string { return fmt.Sprintf("%x", l.digest.Sum(nil))[:16] }

// deriveSeeds draws n seeds from the workload seed, so every input of a run
// follows from that one argument.
func deriveSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// runRounds runs round-cold or round-epoch for dur and fills rep.
func runRounds(rep *report, epoch bool, dur time.Duration) error {
	s := deriveSeeds(rep.Seed, 1+digestRounds)
	deploy, roundSeeds := s[0], s[1:]
	var rs *roundSim
	var setups, setupWall []float64
	// The traced run of round-epoch observes the formation round for the
	// cluster-size histogram the share-algebra replay needs.
	var formation *probe
	repeats := coldSetupRepeats
	if epoch {
		repeats = epochSetupRepeats
	}
	for i := 0; i < repeats; i++ {
		rs = nil
		runtime.GC() // drop the previous copy before timing the next
		if rep.Trace && epoch && i == repeats-1 {
			formation = newProbe()
		}
		start, cpu0 := time.Now(), cpuTime()
		var err error
		if rs, err = newRoundSim(deploy, epoch, formation); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (cpuTime() - cpu0).Seconds())
		setupWall = append(setupWall, time.Since(start).Seconds())
	}
	rep.detail("setup_s.samples", setups)
	rep.detail("setup_wall_s.samples", setupWall)
	if rep.Trace {
		return traceRounds(rep, rs, roundSeeds, formation, dur)
	}
	if !epoch {
		// One untimed round first grows the heap and the engine's arenas to
		// their working size, which the first timed round would otherwise
		// pay for. Every round starts with Reset(seed), so it changes nothing
		// the timed rounds simulate. On round-epoch the formation round in
		// set-up has done this already.
		if _, err := rs.round(roundSeeds[0], nil); err != nil {
			return fmt.Errorf("warm-up round: %w", err)
		}
	}
	led := newRoundLedger()
	steal0 := stolenTime()
	deadline := time.Now().Add(dur)
	for i := 0; i < digestRounds || time.Now().Before(deadline); i++ {
		seed := roundSeeds[i%digestRounds]
		o, err := rs.round(seed, nil)
		led.add(seed, !epoch, o, err)
		if err != nil {
			break
		}
	}
	rep.detail("steal_s", (stolenTime() - steal0).Seconds())
	led.fill(rep)
	rep.set("setup_s", median(setups), "s")
	rep.set("live_heap_mib", liveHeapMiB(), "MiB")
	runtime.KeepAlive(rs)
	return nil
}

// fill writes the ledger's end-to-end metrics, digest and failures.
func (l *roundLedger) fill(rep *report) {
	rep.Attempted = l.attempted
	rep.Failures = append(rep.Failures, l.failures...)
	rep.Digest = l.digestHex()
	if len(l.durs) == 0 {
		return
	}
	rep.set("cpu_ms_per_op", 1000*mean(l.cpus), "ms")
	rep.set("rounds_per_s", float64(len(l.durs))/sum(l.durs), "1/s")
	rep.set("p50_ms", 1000*median(l.durs), "ms")
	// A run holds too few rounds for a percentile with ten samples beyond
	// it, so the tail of a round workload is its slowest round.
	rep.set("tail_ms", 1000*maxOf(l.durs), "ms")
	rep.set("bytes_per_node", mean(l.bytes), "B")
	rep.set("participation", mean(l.particip), "ratio")
	rep.set("fail_ratio", float64(len(l.failures))/float64(l.attempted), "ratio")
	rep.detail("rounds", len(l.durs))
	rep.detail("round_s", l.durs)
	rep.detail("round_cpu_s", l.cpus)
	rep.detail("round_events", l.events)
	rep.detail("participation.samples", l.particip)
	rep.detail("bytes.samples", l.bytes)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
