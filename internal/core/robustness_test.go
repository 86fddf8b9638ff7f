package core

import (
	"testing"

	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/topo"
)

// These tests inject malformed or misdirected frames straight into the
// protocol's receive path after a clean round, asserting the handlers
// tolerate garbage without panicking or corrupting the base station's view.

func robustnessFixture(t *testing.T) (*Protocol, topo.NodeID) {
	t.Helper()
	env, p := run(t, 300, 81, true, nil)
	if !env.Net.Connected() {
		t.Skip("disconnected deployment")
	}
	if _, err := p.Run(1); err != nil {
		t.Fatal(err)
	}
	head := p.PickAttacker(false)
	if head < 0 {
		t.Skip("no head")
	}
	return p, head
}

func TestGarbagePayloadsIgnored(t *testing.T) {
	p, head := robustnessFixture(t)
	garbage := []byte{0xde, 0xad}
	kinds := []message.Kind{
		message.KindHello, message.KindJoin, message.KindRoster,
		message.KindShare, message.KindRelay, message.KindAssembled,
		message.KindAnnounce, message.KindReading, message.KindAlarm,
	}
	before := p.bsSums[0]
	for _, k := range kinds {
		p.receive(head, message.Build(k, 2, head, 1, garbage))
		p.receive(topo.BaseStationID, message.Build(k, 2, topo.BaseStationID, 1, garbage))
	}
	if p.bsSums[0] != before {
		t.Error("garbage frames changed the base station's totals")
	}
}

func TestShareFromNonMemberIgnored(t *testing.T) {
	p, head := robustnessFixture(t)
	st := &p.nodes[head]
	outsider := topo.NodeID(-1)
	for i := 1; i < len(p.nodes); i++ {
		if p.HeadOf(topo.NodeID(i)) != head {
			outsider = topo.NodeID(i)
			break
		}
	}
	if outsider < 0 {
		t.Skip("no outsider")
	}
	maskBefore := st.first.recvMask
	pt, err := message.MarshalValues([]field.Element{42})
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := p.env.Seal(outsider, head, pt)
	if err != nil {
		t.Fatal(err)
	}
	p.onShare(head, message.Build(message.KindShare, outsider, head, 1, sealed), &st.first)
	if st.first.recvMask != maskBefore {
		t.Error("share from a non-member was accepted")
	}
}

func TestJoinForWrongHeadIgnored(t *testing.T) {
	p, head := robustnessFixture(t)
	joinersBefore := len(p.nodes[head].joiners)
	// A join claiming a DIFFERENT head inside the payload must be dropped.
	p.onJoin(head, message.Build(message.KindJoin, 2, head, 1,
		message.MarshalJoin(message.Join{Head: head + 1, Seed: 5})))
	if len(p.nodes[head].joiners) != joinersBefore {
		t.Error("join with mismatched head accepted")
	}
}

func TestRosterFromWrongHeadIgnored(t *testing.T) {
	p, head := robustnessFixture(t)
	var member topo.NodeID = -1
	for i := 1; i < len(p.nodes); i++ {
		if p.HeadOf(topo.NodeID(i)) == head && topo.NodeID(i) != head {
			member = topo.NodeID(i)
			break
		}
	}
	if member < 0 {
		t.Skip("no member")
	}
	algebraBefore := p.nodes[member].algebra
	payload, err := message.MarshalRoster(message.Roster{
		Head:    99,
		Entries: []message.RosterEntry{{ID: 99, Seed: 1}, {ID: member, Seed: 2}, {ID: 3, Seed: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// From a node that is not the member's head: must be ignored.
	p.onRoster(member, message.Build(message.KindRoster, 99, message.BroadcastID, 1, payload))
	if p.nodes[member].algebra != algebraBefore {
		t.Error("foreign roster was installed")
	}
}

func TestRelayRefusedByNonHead(t *testing.T) {
	p, head := robustnessFixture(t)
	var member topo.NodeID = -1
	for i := 1; i < len(p.nodes); i++ {
		if p.nodes[i].role == roleMember {
			member = topo.NodeID(i)
			break
		}
	}
	if member < 0 {
		t.Skip("no member")
	}
	inner, err := message.Build(message.KindShare, head, 2, 1, []byte{1, 2, 3}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := message.MarshalRelay(message.Relay{Inner: inner})
	if err != nil {
		t.Fatal(err)
	}
	sentBefore := p.env.Rec.TotalTxMessages()
	p.onRelay(member, message.Build(message.KindRelay, head, member, 1, payload))
	// Members must not forward relays (only heads relay for their cluster).
	// Allow the MAC queue to drain; nothing should have been enqueued.
	if err := p.env.Eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.env.Rec.TotalTxMessages() != sentBefore {
		t.Error("non-head forwarded a relay")
	}
}

func TestDuplicateShareIgnored(t *testing.T) {
	p, head := robustnessFixture(t)
	st := &p.nodes[head]
	if st.myIdx < 0 || len(st.roster.Entries) < 2 {
		t.Skip("no cluster state")
	}
	// Replay an already-recorded sender index with a different value.
	idx := (st.myIdx + 1) % len(st.roster.Entries)
	if st.first.recvMask&(1<<uint(idx)) == 0 {
		t.Skip("share slot empty")
	}
	before := append([]field.Element(nil), st.first.shares[idx]...)
	st.first.accept(idx, []field.Element{999})
	if len(st.first.shares[idx]) != len(before) || st.first.shares[idx][0] != before[0] {
		t.Error("duplicate share overwrote the original")
	}
}

func TestAlarmDedupAtBaseStation(t *testing.T) {
	p, head := robustnessFixture(t)
	alarm := message.MarshalAlarm(message.Alarm{Suspect: head, Observed: 1, Expected: 2})
	for i := 0; i < 5; i++ {
		p.onAlarm(topo.BaseStationID, message.Build(message.KindAlarm, 3, message.BroadcastID, 1, alarm))
	}
	if len(p.bsAlarms) != 1 {
		t.Errorf("bsAlarms = %d, want 1 (deduped)", len(p.bsAlarms))
	}
}
