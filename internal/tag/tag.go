// Package tag implements the TAG baseline (Madden et al., OSDI 2002): a
// single spanning tree rooted at the base station, epoch-scheduled in-network
// additive aggregation, no privacy, no integrity protection. It is the
// comparison point for every overhead/accuracy figure, exactly as in the
// lineage papers.
package tag

import (
	"fmt"
	"time"

	"repro/internal/field"
	"repro/internal/mac"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/topo"
	"repro/internal/wsn"
)

// Config tunes the protocol's schedule.
type Config struct {
	FormationWindow time.Duration // HELLO flood settling time
	EpochSlot       time.Duration // per-hop transmission window
	MaxHops         int           // deepest tree level scheduled
}

// DefaultConfig returns a schedule ample for 600 nodes on 400 m × 400 m.
func DefaultConfig() Config {
	return Config{
		FormationWindow: 1500 * time.Millisecond,
		EpochSlot:       150 * time.Millisecond,
		MaxHops:         16,
	}
}

// Node is one sensor's view of the tree in the current round.
type Node struct {
	Parent     topo.NodeID // -1 until joined
	Hops       int
	ChildSum   field.Element
	ChildCount uint32
	Children   int           // aggregate frames received from children
	Sent       field.Element // partial sum forwarded to the parent
	Reported   bool
}

// Protocol is one TAG instance over an Env. Its tree — Start, Receive and
// Result around one engine run — is also the substrate SDAP attests over.
type Protocol struct {
	env   *wsn.Env
	cfg   Config
	round uint16
	start metrics.Traffic

	// Nodes holds the current round's tree, indexed by NodeID.
	Nodes []Node

	// Forward, when non-nil, rewrites the partial sum a node reports to its
	// parent (SDAP's pollution attacker).
	Forward func(id topo.NodeID, sum field.Element) field.Element
}

// New wires a TAG instance onto the environment's MAC.
func New(env *wsn.Env, cfg Config) (*Protocol, error) {
	if cfg.FormationWindow <= 0 || cfg.EpochSlot <= 0 || cfg.MaxHops < 1 {
		return nil, fmt.Errorf("tag: invalid config %+v", cfg)
	}
	p := &Protocol{env: env, cfg: cfg}
	return p, nil
}

// Run executes one query round and returns the base station's view.
func (p *Protocol) Run(round uint16) (metrics.RoundResult, error) {
	p.Start(round, p.Receive)
	if err := p.env.Eng.Run(0); err != nil {
		return metrics.RoundResult{}, fmt.Errorf("tag: %w", err)
	}
	return p.Result(), nil
}

// Start resets the tree for a round, routes every node's frames to receive
// (Receive, or a protocol that layers phases over it) and schedules the HELLO
// flood and the epoch reports. The caller runs the engine.
func (p *Protocol) Start(round uint16, receive mac.Receiver) {
	p.round = round
	n := p.env.Net.Size()
	p.Nodes = make([]Node, n)
	for i := range p.Nodes {
		p.Nodes[i].Parent = -1
	}
	p.start = p.env.Rec.Traffic()
	for i := 0; i < n; i++ {
		id := topo.NodeID(i)
		p.env.MAC.SetReceiver(id, receive)
	}

	// The base station roots the tree.
	p.Nodes[topo.BaseStationID].Parent = topo.BaseStationID
	p.env.Eng.After(0, func() { p.sendHello(topo.BaseStationID, 0) })

	// Epoch-scheduled aggregation: deeper nodes transmit earlier.
	p.env.Eng.After(p.cfg.FormationWindow, func() { p.scheduleReports() })
}

// Result is the base station's view of the round just run.
func (p *Protocol) Result() metrics.RoundResult {
	bs := &p.Nodes[topo.BaseStationID]
	covered := 0
	for i := 1; i < len(p.Nodes); i++ {
		if p.Nodes[i].Parent >= 0 {
			covered++
		}
	}
	traffic := p.env.Rec.Traffic().Sub(p.start)
	return metrics.RoundResult{
		Protocol:     "tag",
		TrueSum:      p.env.TrueSum(),
		TrueCount:    p.env.TrueCount(),
		ReportedSum:  bs.ChildSum.Int(),
		ReportedCnt:  int64(bs.ChildCount),
		Participants: int(bs.ChildCount),
		Covered:      covered,
		Accepted:     true, // TAG has no integrity check
		TxBytes:      traffic.TxBytes,
		TxMessages:   traffic.TxMessages,
		AppMessages:  traffic.AppMessages,
	}
}

func (p *Protocol) sendHello(from topo.NodeID, hops int) {
	p.env.MAC.Send(message.Build(
		message.KindHello, from, message.BroadcastID, p.round,
		message.MarshalHello(message.Hello{Origin: topo.BaseStationID, Hops: uint16(hops)}),
	))
}

// Receive handles the tree's own frames, HELLO and aggregate; it ignores
// every other kind.
func (p *Protocol) Receive(at topo.NodeID, msg *message.Message) {
	switch msg.Kind {
	case message.KindHello:
		p.onHello(at, msg)
	case message.KindAggregate:
		if msg.To != at {
			return // TAG ignores overheard traffic
		}
		agg, err := message.UnmarshalAggregate(msg.Payload)
		if err != nil {
			return
		}
		st := &p.Nodes[at]
		st.ChildSum = st.ChildSum.Add(agg.Sum)
		st.ChildCount += agg.Count
		st.Children++
	}
}

func (p *Protocol) onHello(at topo.NodeID, msg *message.Message) {
	st := &p.Nodes[at]
	if st.Parent >= 0 {
		return // already joined
	}
	h, err := message.UnmarshalHello(msg.Payload)
	if err != nil {
		return
	}
	st.Parent = msg.From
	st.Hops = int(h.Hops) + 1
	p.sendHello(at, st.Hops)
}

// scheduleReports arranges every joined node's single aggregate
// transmission, deepest levels first.
func (p *Protocol) scheduleReports() {
	for i := 1; i < p.env.Net.Size(); i++ {
		id := topo.NodeID(i)
		st := &p.Nodes[i]
		if st.Parent < 0 {
			continue
		}
		slot := p.cfg.MaxHops - st.Hops
		if slot < 0 {
			slot = 0
		}
		// Jitter within the slot desynchronises same-level nodes.
		jitter := time.Duration(p.env.Rng.Int63n(int64(p.cfg.EpochSlot / 2)))
		at := time.Duration(slot)*p.cfg.EpochSlot + jitter
		p.env.Eng.After(at, func() { p.report(id) })
	}
}

func (p *Protocol) report(id topo.NodeID) {
	st := &p.Nodes[id]
	sum := st.ChildSum.Add(p.env.ReadingElement(id))
	if p.Forward != nil {
		sum = p.Forward(id, sum)
	}
	st.Sent = sum
	st.Reported = true
	p.env.MAC.Send(message.Build(
		message.KindAggregate, id, st.Parent, p.round,
		message.MarshalAggregate(message.Aggregate{Sum: sum, Count: st.ChildCount + 1}),
	))
}
