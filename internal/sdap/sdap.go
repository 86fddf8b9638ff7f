// Package sdap implements a simplified SDAP-class comparator (Yang et al.,
// MobiHoc 2006): TAG-style tree aggregation hardened by commit-and-attest
// sampling. After the aggregate arrives, the base station challenges a
// random sample of aggregators; each must attest its subtree with its
// children's MAC-authenticated reports, which an attacker cannot forge, so
// a sampled attacker is caught — but an unsampled one is not.
//
// This is the *statistical* integrity design the cluster paper's related
// work criticises: detection probability equals the sample fraction (paid
// for with attestation traffic every round), whereas the cluster protocol's
// witnesses give deterministic detection for free. Experiment
// F14-statistical quantifies the contrast on this shared substrate.
//
// Simplifications relative to full SDAP, documented per the reproduction
// rules: groups are aggregator subtrees rather than probabilistically
// re-grouped sets; MAC authentication is modelled (a sampled attacker's
// attestation is marked inconsistent rather than carrying real per-child
// MACs); the commit phase is folded into the aggregation frames. None of
// these change the headline property — sampling-bounded detection.
package sdap

import (
	"fmt"
	"time"

	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/tag"
	"repro/internal/topo"
	"repro/internal/wsn"
)

// Config tunes the protocol.
type Config struct {
	FormationWindow time.Duration
	EpochSlot       time.Duration
	MaxHops         int
	// SampleFraction of aggregators (nodes with children) challenged per
	// round.
	SampleFraction float64

	// Polluter adds PollutionDelta to the aggregate it forwards.
	Polluter       topo.NodeID
	PollutionDelta int64
}

// DefaultConfig mirrors the TAG schedule plus an attestation phase.
func DefaultConfig() Config {
	return Config{
		FormationWindow: 1500 * time.Millisecond,
		EpochSlot:       150 * time.Millisecond,
		MaxHops:         16,
		SampleFraction:  0.2,
		Polluter:        -1,
	}
}

// Protocol is one SDAP-lite instance over an Env: TAG's tree (package
// internal/tag) plus the challenge, attest and attest-response phases.
type Protocol struct {
	env   *wsn.Env
	cfg   Config
	tree  *tag.Protocol
	round uint16

	attestSeen []bool // challenge-flood dedup, per node
	detected   bool
	attested   int
}

// New wires an instance onto the environment's MAC.
func New(env *wsn.Env, cfg Config) (*Protocol, error) {
	if cfg.SampleFraction < 0 || cfg.SampleFraction > 1 {
		return nil, fmt.Errorf("sdap: invalid config %+v", cfg)
	}
	tree, err := tag.New(env, tag.Config{
		FormationWindow: cfg.FormationWindow,
		EpochSlot:       cfg.EpochSlot,
		MaxHops:         cfg.MaxHops,
	})
	if err != nil {
		return nil, fmt.Errorf("sdap: %w", err)
	}
	tree.Forward = func(id topo.NodeID, sum field.Element) field.Element {
		if id == cfg.Polluter {
			sum = sum.Add(field.FromInt(cfg.PollutionDelta))
		}
		return sum
	}
	return &Protocol{env: env, cfg: cfg, tree: tree}, nil
}

// Run executes one aggregation + attestation round.
func (p *Protocol) Run(round uint16) (metrics.RoundResult, error) {
	p.round = round
	p.attestSeen = make([]bool, p.env.Net.Size())
	p.detected = false
	p.attested = 0
	p.tree.Start(round, p.receive)
	aggEnd := p.cfg.FormationWindow + time.Duration(p.cfg.MaxHops+1)*p.cfg.EpochSlot
	p.env.Eng.After(aggEnd, func() { p.challenge() })

	if err := p.env.Eng.Run(0); err != nil {
		return metrics.RoundResult{}, fmt.Errorf("sdap: %w", err)
	}

	res := p.tree.Result()
	res.Protocol = "sdap"
	res.Accepted = !p.detected
	if p.detected {
		res.Alarms = 1
	}
	return res, nil
}

// Attested returns how many aggregators were challenged last round.
func (p *Protocol) Attested() int { return p.attested }

func (p *Protocol) receive(at topo.NodeID, msg *message.Message) {
	switch msg.Kind {
	case message.KindAttest:
		p.onAttest(at, msg)
	case message.KindAttestResp:
		p.onAttestResp(at, msg)
	default:
		p.tree.Receive(at, msg)
	}
}

// challenge floods the base station's sample set; every sampled aggregator
// that reported must attest.
func (p *Protocol) challenge() {
	if p.cfg.SampleFraction == 0 {
		return
	}
	var sample []topo.NodeID
	for i := 1; i < p.env.Net.Size(); i++ {
		st := &p.tree.Nodes[i]
		if st.Children == 0 || !st.Reported {
			continue // leaves carry no subtree to attest
		}
		if p.env.Rng.Float64() < p.cfg.SampleFraction {
			sample = append(sample, topo.NodeID(i))
		}
	}
	if len(sample) == 0 {
		return
	}
	p.attested = len(sample)
	payload, err := message.MarshalIDList(sample)
	if err != nil {
		return
	}
	p.env.MAC.Send(message.Build(
		message.KindAttest, topo.BaseStationID, message.BroadcastID, p.round, payload))
}

// onAttest floods the challenge and answers it when sampled. Every node
// rebroadcasts it once; the MAC's round/seq dedup cannot stop a re-flood
// because each forwarder's copy is a distinct frame, so attestSeen dedups
// per node.
func (p *Protocol) onAttest(at topo.NodeID, msg *message.Message) {
	if p.attestSeen[at] {
		return
	}
	p.attestSeen[at] = true
	// Re-flood so the challenge reaches deep aggregators.
	p.env.MAC.Send(message.Build(message.KindAttest, at, message.BroadcastID, msg.Round, msg.Payload))
	ids, err := message.UnmarshalIDList(msg.Payload)
	if err != nil {
		return
	}
	for _, id := range ids {
		if id != at {
			continue
		}
		// Attest: in a real deployment this carries the children's
		// MAC-authenticated reports. The attacker cannot forge those, so
		// its attestation is inconsistent with what it sent upward.
		st := &p.tree.Nodes[at]
		resp := message.AttestResp{
			Subject:    at,
			Reported:   st.Sent,
			Consistent: at != p.cfg.Polluter,
		}
		p.env.MAC.Send(message.Build(
			message.KindAttestResp, at, st.Parent, msg.Round,
			message.MarshalAttestResp(resp)))
	}
}

// onAttestResp relays attestations up the tree and verdicts at the base
// station.
func (p *Protocol) onAttestResp(at topo.NodeID, msg *message.Message) {
	if msg.To != at {
		return
	}
	resp, err := message.UnmarshalAttestResp(msg.Payload)
	if err != nil {
		return
	}
	if at == topo.BaseStationID {
		if !resp.Consistent {
			p.detected = true
		}
		return
	}
	parent := p.tree.Nodes[at].Parent
	if parent < 0 {
		return
	}
	p.env.MAC.Send(message.Build(message.KindAttestResp, at, parent, msg.Round, msg.Payload))
}

// PickAggregator deterministically returns the lowest-ID node that
// aggregated children in the last Run, or -1.
func (p *Protocol) PickAggregator() topo.NodeID {
	for i := 1; i < len(p.tree.Nodes); i++ {
		if st := &p.tree.Nodes[i]; st.Children > 0 && st.Reported {
			return topo.NodeID(i)
		}
	}
	return -1
}
