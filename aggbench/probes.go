package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/shares"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/wsn"
	"repro/internal/wsncrypto"
)

// captureMax bounds the frames a traced round keeps for each replay: a
// uniform sample of all frames for the codec, the first sealed frames for
// the crypto envelope.
const captureMax = 4096

// probe observes one traced round from outside the program: it is the
// flight-recorder sink, the MAC tap and the key-scheme wrapper at once.
// Every hook is passive — it never changes a frame, a key or an RNG draw —
// so a traced round simulates exactly what an untraced one does.
type probe struct {
	mu sync.Mutex

	marks    []phaseMark
	drops    map[string]int
	clusters map[topo.NodeID]bool

	frames     int
	frameBytes int
	sealed     int
	captured   []*message.Message // uniform sample of every frame sent
	sealedCap  []*message.Message // the first sealed frames sent
	sampler    *rand.Rand         // the probe's own, never the program's
	delivered  int
	broadcasts map[[2]int32]bool
	rosters    []int // member counts of every roster sent

	keys     wsncrypto.KeyScheme // the wrapped scheme
	keyCalls int
	keyTime  time.Duration
}

type phaseMark struct {
	phase string
	at    time.Time
}

func newProbe() *probe {
	return &probe{
		drops:      map[string]int{},
		clusters:   map[topo.NodeID]bool{},
		broadcasts: map[[2]int32]bool{},
		sampler:    rand.New(rand.NewSource(1)),
	}
}

// Emit implements trace.Sink: it stamps phase marks with host time and
// counts drops by cause and the clusters that announced a sum.
func (p *probe) Emit(ev trace.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch ev.Type {
	case trace.TypePhase:
		p.marks = append(p.marks, phaseMark{ev.Phase, time.Now()})
	case trace.TypeDrop:
		p.drops[ev.Cause]++
	case trace.TypeLifecycle:
		if ev.Cause == trace.StateAnnounced && ev.Cluster != trace.NoCluster {
			p.clusters[ev.Cluster] = true
		}
	}
}

// OnSend implements mac.Tap: it counts every queued frame, keeps copies
// for the replays, and records roster sizes.
func (p *probe) OnSend(msg *message.Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.frames++
	p.frameBytes += msg.WireSize()
	copyMsg := func() *message.Message {
		c := *msg
		c.Payload = append([]byte(nil), msg.Payload...)
		return &c
	}
	switch msg.Kind {
	case message.KindShare, message.KindSubShare, message.KindRelay:
		p.sealed++
		if len(p.sealedCap) < captureMax {
			p.sealedCap = append(p.sealedCap, copyMsg())
		}
	case message.KindRoster:
		if r, err := message.UnmarshalRoster(msg.Payload); err == nil {
			p.rosters = append(p.rosters, len(r.Entries))
		}
	}
	// Reservoir sampling keeps a uniform sample of the round's frames.
	if len(p.captured) < captureMax {
		p.captured = append(p.captured, copyMsg())
	} else if j := p.sampler.Intn(p.frames); j < captureMax {
		p.captured[j] = copyMsg()
	}
}

// OnDeliver implements mac.Tap: a unicast counts when it reaches its
// addressee, a broadcast when it first reaches any node.
func (p *probe) OnDeliver(at topo.NodeID, msg *message.Message) *message.Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	if msg.IsBroadcast() {
		k := [2]int32{int32(msg.From), int32(msg.Seq)}
		if !p.broadcasts[k] {
			p.broadcasts[k] = true
			p.delivered++
		}
	} else if msg.To == at {
		p.delivered++
	}
	return msg
}

// countingKeys wraps the deployment's key scheme to count and time LinkKey.
type countingKeys struct {
	wsncrypto.KeyScheme
	p *probe
}

func (k countingKeys) LinkKey(a, b topo.NodeID) ([]byte, bool) {
	start := time.Now()
	key, ok := k.KeyScheme.LinkKey(a, b)
	took := time.Since(start)
	k.p.mu.Lock()
	k.p.keyCalls++
	k.p.keyTime += took
	k.p.mu.Unlock()
	return key, ok
}

// attach installs the probe on env: sink, tap and key wrapper.
func (p *probe) attach(env *wsn.Env) {
	env.SetSink(p)
	env.MAC.SetTap(p)
	p.keys = env.Keys
	env.Keys = countingKeys{KeyScheme: env.Keys, p: p}
}

// detach removes every hook and restores the original key scheme.
func (p *probe) detach(env *wsn.Env) {
	env.SetSink(nil)
	env.MAC.SetTap(nil)
	if p.keys != nil {
		env.Keys = p.keys
	}
}

// phaseSpans turns the host-stamped phase marks of one round into spans
// under a root span for the round (index 0) and its reset child: each
// phase runs from its mark to the next mark or the round's end.
func (p *probe) phaseSpans(start, resetEnd, end time.Time) []span {
	at := func(t time.Time) time.Duration { return t.Sub(start) }
	spans := []span{{Name: "round", Parent: -1, Start: 0, End: at(end)}}
	if resetEnd.After(start) {
		spans = append(spans, span{Name: "reset", Parent: 0, Start: 0, End: at(resetEnd)})
	}
	for i, m := range p.marks {
		stop := end
		if i+1 < len(p.marks) {
			stop = p.marks[i+1].at
		}
		spans = append(spans, span{Name: "phase:" + m.phase, Parent: 0, Start: at(m.at), End: at(stop)})
	}
	return spans
}

// cryptoReplay times NewSealer, Open and Seal on the sealed frames a round
// captured, under the keys the round used. Every captured envelope must
// open: a failure means the replay used the wrong key or the frame was
// corrupted, and is reported as an error.
func cryptoReplay(keys wsncrypto.KeyScheme, frames []*message.Message) (newSealer, open, seal float64, err error) {
	type env struct {
		from, to topo.NodeID
		payload  []byte
	}
	var envs []env
	for _, f := range frames {
		switch f.Kind {
		case message.KindShare, message.KindSubShare:
			envs = append(envs, env{f.From, f.To, f.Payload})
		case message.KindRelay:
			r, e := message.UnmarshalRelay(f.Payload)
			if e != nil {
				return 0, 0, 0, fmt.Errorf("relay replay: %w", e)
			}
			inner, e := message.Unmarshal(r.Inner)
			if e != nil {
				return 0, 0, 0, fmt.Errorf("relay replay: %w", e)
			}
			envs = append(envs, env{inner.From, inner.To, inner.Payload})
		}
	}
	if len(envs) == 0 {
		return 0, 0, 0, nil
	}
	sealers := make([]*wsncrypto.Sealer, len(envs))
	linkKeys := make([][]byte, len(envs))
	for i, e := range envs {
		k, ok := keys.LinkKey(e.from, e.to)
		if !ok {
			return 0, 0, 0, fmt.Errorf("crypto replay: no key for %d<->%d", e.from, e.to)
		}
		linkKeys[i] = k
	}
	start := time.Now()
	for i := range envs {
		if sealers[i], err = wsncrypto.NewSealer(linkKeys[i]); err != nil {
			return 0, 0, 0, err
		}
	}
	tNew := time.Since(start)
	plain := make([][]byte, len(envs))
	start = time.Now()
	for i, e := range envs {
		if plain[i], err = sealers[i].Open(e.payload); err != nil {
			return 0, 0, 0, fmt.Errorf("crypto replay: frame %d->%d does not open: %w", e.from, e.to, err)
		}
	}
	tOpen := time.Since(start)
	start = time.Now()
	for i := range envs {
		sealers[i].Seal(plain[i])
	}
	tSeal := time.Since(start)
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(len(envs)) }
	return per(tNew), per(tOpen), per(tSeal), nil
}

// codecReplay times Marshal and Unmarshal of the captured frames and
// checks that every frame survives the round trip.
func codecReplay(frames []*message.Message) (marshal, unmarshal float64, err error) {
	if len(frames) == 0 {
		return 0, 0, nil
	}
	wire := make([][]byte, len(frames))
	start := time.Now()
	for i, f := range frames {
		if wire[i], err = f.Marshal(); err != nil {
			return 0, 0, fmt.Errorf("codec replay: %w", err)
		}
	}
	tm := time.Since(start)
	back := make([]*message.Message, len(frames))
	start = time.Now()
	for i := range wire {
		if back[i], err = message.Unmarshal(wire[i]); err != nil {
			return 0, 0, fmt.Errorf("codec replay: %w", err)
		}
	}
	tu := time.Since(start)
	for i, f := range frames {
		b := back[i]
		if b.Kind != f.Kind || b.From != f.From || b.To != f.To || b.Seq != f.Seq || string(b.Payload) != string(f.Payload) {
			return 0, 0, fmt.Errorf("codec replay: %s frame %d->%d changed in a round trip", f.Kind, f.From, f.To)
		}
	}
	n := float64(len(frames))
	return float64(tm.Nanoseconds()) / n, float64(tu.Nanoseconds()) / n, nil
}

// sharesReplay times one cluster's share algebra — every member generating
// its shares, the column sums, and the recovery — for width components,
// averaged over clusters drawn from the observed cluster-size histogram.
// Sizes below shares.MinClusterSize never run the algebra and are skipped.
func sharesReplay(sizes []int, width int) (float64, error) {
	var viable []int
	for _, m := range sizes {
		if shares.Viable(m) && m <= 64 {
			viable = append(viable, m)
		}
	}
	if len(viable) == 0 {
		return 0, nil
	}
	sort.Ints(viable)
	algebras := map[int]*shares.Algebra{}
	for _, m := range viable {
		if algebras[m] != nil {
			continue
		}
		seeds := make([]field.Element, m)
		for i := range seeds {
			seeds[i] = shares.SeedFor(i)
		}
		a, err := shares.NewAlgebra(seeds)
		if err != nil {
			return 0, fmt.Errorf("shares replay: %w", err)
		}
		algebras[m] = a
	}
	rng := rand.New(rand.NewSource(1))
	// Repeat the histogram until enough clusters ran for a stable mean.
	reps := max(1, 2000/len(viable))
	var total time.Duration
	clusters := 0
	var gen []shares.Shares
	var rows [][]field.Element
	dst := make([]field.Element, width)
	for r := 0; r < reps; r++ {
		for _, m := range viable {
			a := algebras[m]
			gen = growShares(gen, m*width)
			rows = growRows(rows, m, width)
			start := time.Now()
			for j := 0; j < m; j++ {
				for k := 0; k < width; k++ {
					a.GenerateInto(rng, field.New(uint64(10+j+k)), &gen[j*width+k])
				}
			}
			for i := 0; i < m; i++ {
				for k := 0; k < width; k++ {
					var col field.Element
					for j := 0; j < m; j++ {
						col = col.Add(gen[j*width+k].ForMember[i])
					}
					rows[i][k] = col
				}
			}
			if err := a.RecoverSumInto(dst, rows); err != nil {
				return 0, fmt.Errorf("shares replay: %w", err)
			}
			total += time.Since(start)
			clusters++
			var want field.Element
			for j := 0; j < m; j++ {
				want = want.Add(field.New(uint64(10 + j)))
			}
			if dst[0] != want {
				return 0, fmt.Errorf("shares replay: recovered %v, want %v for m=%d", dst[0], want, m)
			}
		}
	}
	return float64(total.Nanoseconds()) / float64(clusters), nil
}

func growShares(s []shares.Shares, n int) []shares.Shares {
	for len(s) < n {
		s = append(s, shares.Shares{})
	}
	return s[:n]
}

func growRows(s [][]field.Element, m, width int) [][]field.Element {
	for len(s) < m {
		s = append(s, nil)
	}
	s = s[:m]
	for i := range s {
		if len(s[i]) < width {
			s[i] = make([]field.Element, width)
		}
	}
	return s
}
