package core

import (
	"math/bits"
	"slices"
	"time"

	"repro/internal/field"
	"repro/internal/message"
	"repro/internal/shares"
	"repro/internal/topo"
	"repro/internal/trace"
)

// exchange is one run of the CPDA share exchange over a participant set:
// each participant sends every co-participant one polynomial share per
// query component, commits the column sum of the shares it received as its
// report, and the collector — the head, or the deputy standing in for a
// silent head — solves the reports for the cluster sums. A round runs it
// over the full roster (nodeState.first) and, when that leaves the report
// set incomplete, once more over the maximal common participant subset M
// (nodeState.sub) with fresh degree-|M|-1 polynomials. Both runs go through
// the same functions below; only the message kinds and the schedule differ.
type exchange struct {
	mask     uint64              // participant set by roster index (0 = not running)
	shares   [][]field.Element   // received share vectors by roster index
	recvMask uint64              // which share slots are live
	sent     message.Assembled   // this node's committed report (nil Fs = none yet)
	reports  []message.Assembled // collector: reports by roster index
	repMask  uint64              // which report slots are live
}

// start opens the exchange over mask in a roster of m entries, reusing the
// backing arrays: stale rows from an earlier run must never read as
// received shares, and report slots are gated by repMask.
func (x *exchange) start(mask uint64, m int) {
	rows := slices.Grow(x.shares[:0], m)[:m]
	clear(rows)
	*x = exchange{mask: mask, shares: rows, reports: slices.Grow(x.reports[:0], m)[:m]}
}

// next returns the closed exchange a new round starts from. It keeps the
// backing arrays but drops last round's rows and reports, so the GC can
// take them between rounds.
func (x *exchange) next() exchange {
	clear(x.shares)
	clear(x.reports)
	return exchange{shares: x.shares[:0], reports: x.reports[:0]}
}

// accept stores one share vector from roster index i; duplicates are
// dropped.
func (x *exchange) accept(i int, vec []field.Element) {
	bit := uint64(1) << uint(i)
	if x.recvMask&bit != 0 {
		return
	}
	x.recvMask |= bit
	x.shares[i] = vec
}

// record stores the report committed by roster index i.
func (x *exchange) record(i int, a message.Assembled) {
	x.reports[i] = a
	x.repMask |= uint64(1) << uint(i)
}

// complete reports whether every participant's report is in, each built
// on exactly the participant set — what the solve needs.
func (x *exchange) complete() bool {
	if x.repMask&x.mask != x.mask {
		return false
	}
	for i := range x.reports {
		if x.mask&(uint64(1)<<uint(i)) != 0 && x.reports[i].Mask != x.mask {
			return false
		}
	}
	return true
}

// commonSubset returns who reported and the maximal common participant
// subset M: the reporters whose shares every reporter received.
func (x *exchange) commonSubset() (mask, reporters uint64) {
	common := ^uint64(0)
	for i := range x.reports {
		if x.repMask&(uint64(1)<<uint(i)) == 0 {
			continue
		}
		reporters |= uint64(1) << uint(i)
		common &= x.reports[i].Mask
	}
	return common & reporters & x.mask, reporters
}

// sharePrep carries one participant's share frames. In the first exchange
// it crosses the three-pass barrier in scheduleShareExchange: pass 1
// (serial) fills id, delay and coeffs; pass 2 (parallel) fills self and
// frames; pass 3 (serial) schedules the send events. Those structs and
// their backing arrays are protocol-owned and reused every round: the
// frames of round r are consumed by the engine before round r+1's pass 1
// runs. The sub-exchange builds a fresh one at event time.
type sharePrep struct {
	id     topo.NodeID
	delay  time.Duration
	coeffs []field.Element    // c×(m-1) masking coefficients, serial RNG order
	self   []field.Element    // own share vector (retained by accept)
	frames []*message.Message // prepared co-participant frames, roster order
}

// shareScratch is one worker's private buffers for buildShareFrames.
type shareScratch struct {
	reading []field.Element // c: the node's component vector
	rows    []field.Element // c×m share matrix, row k = component k
	vec     []field.Element // c: per-target column
}

// scheduleShareExchange opens every viable participant's first exchange,
// runs the share-generation barrier, and schedules each participant's
// jittered send event.
//
// The work is split into three passes so the expensive part — polynomial
// evaluation, marshalling, link encryption — fans out across the worker
// pool while every shared-state touch stays serial and deterministic:
//
//	pass 1 (serial, ascending node ID): draw each participant's jitter and
//	       masking coefficients from the round RNG — a fixed consumption
//	       order regardless of worker count — and pre-warm the sealer cache
//	       entry for every (sender, target) pair a worker will read;
//	pass 2 (parallel): pure per-participant frame construction into the
//	       participant's own sharePrep slot. No RNG, no map writes, no
//	       shared buffers — results are independent of scheduling;
//	pass 3 (serial, ascending node ID): schedule the send events.
//
// Per-sealer nonce streams stay deterministic too: each directional sealer
// (a, b) is touched by exactly one sender's pass-2 task, and any later
// sub-exchange Seal on the same pair runs at (serial) event time.
func (p *Protocol) scheduleShareExchange() {
	p.phaseMark(trace.PhaseExchange, "polynomial share distribution")
	window := p.cfg.AssembleAt - p.cfg.SharesAt
	nprep := 0
	for i := 1; i < p.env.Net.Size(); i++ {
		id := topo.NodeID(i)
		st := &p.nodes[i]
		if st.myIdx < 0 {
			continue
		}
		if p.env.Sink != nil && st.role == roleHead && st.algebra != nil {
			p.lifecycle(id, id, trace.PhaseExchange, trace.StateExchanging,
				"m=%d", len(st.roster.Entries))
		}
		if st.algebra == nil {
			// Undersized cluster: the plain policy reports readings
			// link-encrypted to the head; the drop policy sits out.
			if p.cfg.Undersized == UndersizedPlain && st.role == roleMember {
				p.env.Eng.After(p.jitter(window/2), func() { p.sendPlainReading(id) })
			}
			continue
		}
		m := len(st.roster.Entries)
		st.first.start(message.FullMask(m), m)
		if nprep == len(p.sharePreps) {
			p.sharePreps = append(p.sharePreps, sharePrep{})
		}
		pr := &p.sharePreps[nprep]
		nprep++
		pr.id = id
		pr.delay = p.jitter(window / 2)
		p.drawCoeffs(pr, st.algebra)
		for _, e := range st.roster.Entries {
			if e.ID != id {
				p.env.WarmSealer(id, e.ID)
			}
		}
	}
	preps := p.sharePreps[:nprep]
	p.runWorkers(len(preps), func(w, x int) {
		st := &p.nodes[preps[x].id]
		p.buildShareFrames(&preps[x], &p.prepScratch[w], message.KindShare, st.algebra, st.first.mask)
	})
	for x := range preps {
		pr := &preps[x]
		p.env.Eng.After(pr.delay, func() { p.sendPreparedShares(pr) })
	}
}

// drawCoeffs draws pr's masking coefficients from the round RNG: Size()-1
// per query component, components in order.
func (p *Protocol) drawCoeffs(pr *sharePrep, alg *shares.Algebra) {
	c, n := p.nComponents(), alg.Size()-1
	pr.coeffs = growElems(pr.coeffs, c*n)
	for k := 0; k < c; k++ {
		alg.DrawCoeffs(p.env.Rng, pr.coeffs[k*n:(k+1)*n])
	}
}

// buildShareFrames evaluates the participant's masking polynomials (of the
// exchange's algebra alg) at every co-participant's seed in mask and builds
// the outgoing frames of the given kind. It touches no RNG and writes only
// to pr and sc, so the first exchange's pass 2 runs it in parallel.
func (p *Protocol) buildShareFrames(pr *sharePrep, sc *shareScratch, kind message.Kind, alg *shares.Algebra, mask uint64) {
	id := pr.id
	st := &p.nodes[id]
	c, m := p.nComponents(), alg.Size()
	sc.reading = growElems(sc.reading, c)
	p.readingVectorInto(sc.reading, id)
	sc.rows = growElems(sc.rows, c*m)
	for k := 0; k < c; k++ {
		alg.SharesFromCoeffs(sc.rows[k*m:(k+1)*m], pr.coeffs[k*(m-1):(k+1)*(m-1)], sc.reading[k])
	}
	pr.self = growElems(pr.self, c)
	pr.frames = pr.frames[:0]
	sc.vec = growElems(sc.vec, c)
	j := 0 // position within the participant set's seed order
	for i, entry := range st.roster.Entries {
		if mask&(uint64(1)<<uint(i)) == 0 {
			continue
		}
		for k := 0; k < c; k++ {
			sc.vec[k] = sc.rows[k*m+j]
		}
		j++
		if entry.ID == id {
			copy(pr.self, sc.vec)
			continue
		}
		if f := p.shareFrame(kind, id, entry.ID, sc.vec); f != nil {
			pr.frames = append(pr.frames, f)
		}
	}
}

// shareFrame seals one share vector for target: a link-encrypted direct
// unicast when in radio range, wrapped for relay through the cluster's hub
// otherwise — the hub forwards the frame verbatim and cannot read the
// sealed share. nil when the pair has no link key (EG scheme): the share is
// lost and the exchange will not complete.
func (p *Protocol) shareFrame(kind message.Kind, id, target topo.NodeID, vec []field.Element) *message.Message {
	if !p.env.HasLinkKey(id, target) {
		return nil
	}
	pt, err := message.MarshalValues(vec)
	if err != nil {
		return nil
	}
	sealed, err := p.env.Seal(id, target, pt)
	if err != nil {
		return nil
	}
	inner := message.Build(kind, id, target, p.round, sealed)
	if p.env.Net.InRange(id, target) {
		return inner
	}
	innerBytes, err := inner.Marshal()
	if err != nil {
		return nil
	}
	relayPayload, err := message.MarshalRelay(message.Relay{Inner: innerBytes})
	if err != nil {
		return nil
	}
	return message.Build(message.KindRelay, id, p.hubOf(id), p.round, relayPayload)
}

// hubOf is the node that collects id's reports and relays its out-of-range
// shares: its head, or during a takeover the deputy standing in for it (the
// dead head forwards nothing; the deputy's collected subset only contains
// members in its own radio range, so the deputy reaches every target).
func (p *Protocol) hubOf(id topo.NodeID) topo.NodeID {
	st := &p.nodes[id]
	if st.takeoverBy >= 0 && st.takeoverBy != id {
		return st.takeoverBy
	}
	return st.head
}

// sendPreparedShares is the pass-3 event body: keep our own share and hand
// the prepared frames to the MAC. A node that crashed since preparation
// still runs this — its frames are dropped at the (disabled) MAC, exactly
// like the old at-event-time generation behaved.
func (p *Protocol) sendPreparedShares(pr *sharePrep) {
	st := &p.nodes[pr.id]
	st.first.accept(st.myIdx, pr.self)
	for _, f := range pr.frames {
		p.env.MAC.Send(f)
	}
}

// onRelay forwards (at the head) or unwraps (at the destination) a relayed
// share frame.
func (p *Protocol) onRelay(at topo.NodeID, msg *message.Message) {
	if msg.To != at {
		return
	}
	r, err := message.UnmarshalRelay(msg.Payload)
	if err != nil {
		return
	}
	inner, err := message.Unmarshal(r.Inner)
	if err != nil {
		return
	}
	if inner.To == at {
		// Dispatch through receive so relayed sub-shares (and any future
		// relayed kind) reach their handler, not just first-phase shares.
		p.receive(at, inner)
		return
	}
	// Forward hop: only a head — or a deputy standing in for a dead one —
	// relays, and only for its own cluster.
	st := &p.nodes[at]
	if st.role != roleHead && !st.tookOver {
		return
	}
	p.env.MAC.Send(message.Build(message.KindRelay, at, inner.To, msg.Round, msg.Payload))
}

// onShare decrypts a received share of exchange x and records it by the
// sender's roster index; only participants' shares count.
func (p *Protocol) onShare(at topo.NodeID, msg *message.Message, x *exchange) {
	if msg.To != at || x.mask == 0 {
		return // ciphertext is useless to overhearers
	}
	i := p.nodes[at].indexOf(msg.From)
	if i < 0 || x.mask&(uint64(1)<<uint(i)) == 0 {
		return
	}
	pt, err := p.env.Open(msg.From, at, msg.Payload)
	if err != nil {
		return
	}
	vec, err := message.UnmarshalValues(pt)
	if err != nil || len(vec) != p.nComponents() {
		return
	}
	x.accept(i, vec)
}

// commit sums the shares x received into this node's report and, unless
// this node is the collector, sends it in cleartext as an ARQ unicast to
// its hub. The carried mask is what the node actually received, so the
// collector can only solve — and a witness only accept — participant sets
// every reporter fully covers. The collector later echoes the reports in
// its Announce, which is what lets every member act as an integrity
// witness without having had to overhear every co-member directly.
func (p *Protocol) commit(id topo.NodeID, x *exchange, kind message.Kind) {
	st := &p.nodes[id]
	if x.mask == 0 {
		return
	}
	// fs is retained in the report (and shipped inside the Assembled), so
	// it is allocated fresh rather than drawn from the round scratch.
	fs := make([]field.Element, p.nComponents())
	for _, row := range x.shares {
		field.AddInto(fs, row)
	}
	a := message.Assembled{Fs: fs, Mask: x.recvMask}
	x.sent = a
	x.record(st.myIdx, a) // the collector's own row; a witness's ground truth
	if st.role == roleHead || st.tookOver {
		return
	}
	payload, err := message.MarshalAssembled(a)
	if err != nil {
		return
	}
	p.env.MAC.Send(message.Build(kind, id, p.hubOf(id), p.round, payload))
}

// resend re-commits this node's report of x to a new collector — the
// deputy standing in for a silent head — jittered within an eighth of an
// epoch slot. A node that never committed sends nothing.
func (p *Protocol) resend(id, to topo.NodeID, x *exchange, kind message.Kind) {
	if x.sent.Fs == nil {
		return
	}
	payload, err := message.MarshalAssembled(x.sent)
	if err != nil {
		return
	}
	frame := message.Build(kind, id, to, p.round, payload)
	p.env.Eng.After(p.jitter(p.cfg.EpochSlot/8), func() { p.env.MAC.Send(frame) })
}

// onReport records a participant's report of exchange x at the collector:
// the head, or the deputy standing in for it.
func (p *Protocol) onReport(at topo.NodeID, msg *message.Message, x *exchange) {
	st := &p.nodes[at]
	if msg.To != at || (st.role != roleHead && !st.tookOver) || x.mask == 0 {
		return
	}
	i := st.indexOf(msg.From)
	if i < 0 || x.mask&(uint64(1)<<uint(i)) == 0 {
		return
	}
	a, err := message.UnmarshalAssembled(msg.Payload)
	if err != nil || len(a.Fs) != p.nComponents() {
		return
	}
	x.record(i, a)
}

// solve recovers the cluster's component sums from exchange x. It succeeds
// only when every participant committed a report built on exactly x's
// participant set: the degree-|set|-1 polynomials need all of them.
func (p *Protocol) solve(st *nodeState, x *exchange) ([]field.Element, bool) {
	if st.algebra == nil || x.mask == 0 || !x.complete() {
		return nil, false
	}
	alg := st.algebra
	if x.mask != message.FullMask(len(st.roster.Entries)) {
		sub, err := alg.Subset(x.mask)
		if err != nil {
			return nil, false
		}
		alg = sub
	}
	rows := p.scratchRows[:0]
	for i := range x.reports {
		if x.mask&(uint64(1)<<uint(i)) != 0 {
			rows = append(rows, x.reports[i].Fs)
		}
	}
	p.scratchRows = rows
	sums := make([]field.Element, p.nComponents())
	if err := alg.RecoverSumInto(sums, rows); err != nil {
		return nil, false
	}
	return sums, true
}

// solveCluster recovers the cluster's component sums from the first
// exchange or, failing that, the degraded sub-exchange. It returns the
// exchange the sums cover; nil means the cluster contributes nothing this
// round (data loss, not attack).
func (p *Protocol) solveCluster(st *nodeState) ([]field.Element, *exchange) {
	if sums, ok := p.solve(st, &st.first); ok {
		return sums, &st.first
	}
	if p.cfg.NoDegrade {
		return nil, nil
	}
	if sums, ok := p.solve(st, &st.sub); ok {
		return sums, &st.sub
	}
	return nil, nil
}

// scheduleAssembledBroadcasts has every participant commit its report in
// the first quarter of the window, leaving the rest of the window to the
// head's resilience checkpoints: a repoll of missing reporters at 3/8, and
// the degraded-recovery decision at the half mark. The checkpoints sit in
// the window's first half deliberately — the sub-exchange they may trigger
// finishes around 2/3, and the remaining third drains the MAC queues so
// recovery traffic cannot collide with the announce phase (which costs far
// more than it saves: one congested announce relay loses a whole subtree).
func (p *Protocol) scheduleAssembledBroadcasts() {
	p.phaseMark(trace.PhaseAssembly, "column-sum reports + recovery checkpoints")
	window := p.cfg.AggAt - p.cfg.AssembleAt
	for i := 1; i < p.env.Net.Size(); i++ {
		id := topo.NodeID(i)
		st := &p.nodes[i]
		if st.algebra == nil || st.myIdx < 0 {
			continue
		}
		p.env.Eng.After(p.jitter(window/4), func() { p.commit(id, &st.first, message.KindAssembled) })
		if st.role == roleHead {
			if p.env.Sink != nil {
				p.lifecycle(id, id, trace.PhaseAssembly, trace.StateAssembling, "")
			}
			p.env.Eng.After(window*3/8, func() { p.repollMissing(id) })
			if !p.cfg.NoDegrade {
				p.env.Eng.After(window/2, func() { p.maybeDegrade(id) })
			}
		}
	}
}

// repollMissing is the bounded retry before degrading: at 3/8 of the
// assembly window the head unicasts a repoll to every member whose report
// is still missing or was assembled from an incomplete share set, so the
// member re-commits with whatever shares arrived in the meantime.
func (p *Protocol) repollMissing(id topo.NodeID) {
	st := &p.nodes[id]
	if st.role != roleHead || !viableCluster(st) {
		return
	}
	x := &st.first
	repolled := 0
	for i, e := range st.roster.Entries {
		if i == st.myIdx {
			continue
		}
		if x.repMask&(uint64(1)<<uint(i)) != 0 && x.reports[i].Mask == x.mask {
			continue
		}
		repolled++
		p.env.MAC.Send(message.Build(message.KindRepoll, id, e.ID, p.round, nil))
	}
	if repolled > 0 && p.env.Sink != nil {
		p.lifecycle(id, id, trace.PhaseAssembly, trace.StateRepolled,
			"%d of %d reports missing or incomplete", repolled, len(st.roster.Entries))
	}
}

// onRepoll re-commits the member's report, recomputed so that shares which
// arrived after the first commitment are included.
func (p *Protocol) onRepoll(at topo.NodeID, msg *message.Message) {
	if msg.To != at {
		return
	}
	st := &p.nodes[at]
	if st.role != roleMember || st.head != msg.From || st.algebra == nil || st.myIdx < 0 {
		return
	}
	window := p.cfg.AggAt - p.cfg.AssembleAt
	p.env.Eng.After(p.jitter(window/16), func() { p.commit(at, &st.first, message.KindAssembled) })
}

// maybeDegrade is the head's degraded-recovery decision half-way through
// the assembly window. If the report set is still incomplete or
// inconsistent, the head computes the maximal common participant subset M
// and, when M keeps the cluster viable, broadcasts a Reassemble so M
// re-runs the exchange over degree-|M|-1 polynomials. A smaller M means the
// round fails for this cluster.
func (p *Protocol) maybeDegrade(id topo.NodeID) {
	st := &p.nodes[id]
	if st.role != roleHead || !viableCluster(st) || st.first.complete() {
		return // the full solve will succeed; nothing to repair
	}
	mask, _ := st.first.commonSubset()
	if bits.OnesCount64(mask) < shares.MinClusterSize {
		return // beyond repair: the cluster fails the round
	}
	p.lifecycle(id, id, trace.PhaseAssembly, trace.StateDegraded,
		"reassemble mask=%#x (%d of %d members)", mask, bits.OnesCount64(mask), len(st.roster.Entries))
	p.broadcastTwice(id, message.KindReassemble, message.MarshalReassemble(message.Reassemble{Mask: mask}),
		(p.cfg.AggAt-p.cfg.AssembleAt)/32)
	p.startSubExchange(id, mask, 0)
}

// broadcastTwice sends a local broadcast twice, the first copy within span
// and the second within the span after it: broadcasts get no ARQ, so the
// repeat is their loss resilience (a member of M that misses both
// Reassemble copies sends no sub-report, failing the degraded solve).
func (p *Protocol) broadcastTwice(id topo.NodeID, kind message.Kind, payload []byte, span time.Duration) {
	send := func() {
		p.env.MAC.Send(message.Build(kind, id, message.BroadcastID, p.round, payload))
	}
	p.env.Eng.After(p.jitter(span), send)
	p.env.Eng.After(span+p.jitter(span), send)
}

// onReassemble joins a member into its head's — or, during a takeover, its
// deputy's — degraded subset exchange.
func (p *Protocol) onReassemble(at topo.NodeID, msg *message.Message) {
	st := &p.nodes[at]
	if p.cfg.NoDegrade || st.role != roleMember || !viableCluster(st) {
		return
	}
	fromDeputy := st.takeoverBy >= 0 && msg.From == st.takeoverBy && at != st.takeoverBy
	if msg.From != st.head && !fromDeputy {
		return
	}
	r, err := message.UnmarshalReassemble(msg.Payload)
	if err != nil {
		return
	}
	if fromDeputy && st.sub.mask == r.Mask {
		// The dead head already drove a sub-exchange over exactly this
		// subset before going silent. The committed sub-report is built on
		// the same polynomials, so re-commit it to the deputy instead of
		// re-running the exchange. (If it is still in flight, the pending
		// commit targets the deputy already.)
		p.resend(at, msg.From, &st.sub, message.KindSubAssembled)
		return
	}
	if fromDeputy {
		st.sub.mask = 0 // supersede the dead head's half-finished exchange
	}
	p.startSubExchange(at, r.Mask, 0)
}

// startSubExchange opens the sub-exchange over M and, when this node is a
// member of M, schedules its sub-shares and sub-report. The state installs
// synchronously — a collector must accept sub-shares and sub-reports the
// moment co-members can send them — but the outgoing traffic is held back
// by delay: a takeover deputy defers its own sends until its Reassemble
// broadcast has had time to install the subset at the members, or they
// would drop their would-be collector's sub-shares as unsolicited.
func (p *Protocol) startSubExchange(id topo.NodeID, mask uint64, delay time.Duration) {
	st := &p.nodes[id]
	m := len(st.roster.Entries)
	mask &= message.FullMask(m)
	if st.algebra == nil || st.myIdx < 0 || bits.OnesCount64(mask) < shares.MinClusterSize {
		return
	}
	if st.sub.mask == mask {
		return // duplicate Reassemble broadcast
	}
	st.sub.start(mask, m)
	if mask&(uint64(1)<<uint(st.myIdx)) == 0 {
		return // not in M: the node only relays for the subset exchange
	}
	window := p.cfg.AggAt - p.cfg.AssembleAt
	p.env.Eng.After(delay+p.jitter(window/64), func() { p.sendSubShares(id) })
	p.env.Eng.After(delay+window/8+p.jitter(window/32), func() { p.commit(id, &st.sub, message.KindSubAssembled) })
}

// sendSubShares generates the sub-exchange's shares at event time and
// schedules each frame with its own jitter rather than queueing them in one
// burst: |M| back-to-back unicasts per member would hold the
// neighbourhood's medium for the rest of the window and starve the
// announce phase behind it.
func (p *Protocol) sendSubShares(id topo.NodeID) {
	st := &p.nodes[id]
	x := &st.sub
	if x.mask == 0 || st.algebra == nil {
		return
	}
	alg, err := st.algebra.Subset(x.mask)
	if err != nil {
		return
	}
	pr := sharePrep{id: id}
	p.drawCoeffs(&pr, alg)
	p.buildShareFrames(&pr, &p.prepScratch[0], message.KindSubShare, alg, x.mask)
	if x.mask&(uint64(1)<<uint(st.myIdx)) != 0 {
		x.accept(st.myIdx, pr.self)
	}
	window := p.cfg.AggAt - p.cfg.AssembleAt
	for _, f := range pr.frames {
		p.env.Eng.After(p.jitter(window/16), func() { p.env.MAC.Send(f) })
	}
}

// sendPlainReading implements the UndersizedPlain fallback: the member
// reports its reading link-encrypted to the head (no slicing).
func (p *Protocol) sendPlainReading(id topo.NodeID) {
	st := &p.nodes[id]
	if st.head < 0 || !p.env.HasLinkKey(id, st.head) {
		return
	}
	reading := make([]field.Element, p.nComponents())
	p.readingVectorInto(reading, id)
	pt, err := message.MarshalValues(reading)
	if err != nil {
		return
	}
	sealed, err := p.env.Seal(id, st.head, pt)
	if err != nil {
		return
	}
	p.env.MAC.Send(message.Build(message.KindReading, id, st.head, p.round, sealed))
}

// onPlainReading accumulates undersized-cluster readings at the head.
func (p *Protocol) onPlainReading(at topo.NodeID, msg *message.Message) {
	if msg.To != at {
		return
	}
	st := &p.nodes[at]
	if st.role != roleHead || p.cfg.Undersized != UndersizedPlain {
		return
	}
	pt, err := p.env.Open(msg.From, at, msg.Payload)
	if err != nil {
		return
	}
	vec, err := message.UnmarshalValues(pt)
	if err != nil || len(vec) != p.nComponents() {
		return
	}
	if st.plainSums == nil {
		st.plainSums = make([]field.Element, p.nComponents())
	}
	for k := range vec {
		st.plainSums[k] = st.plainSums[k].Add(vec[k])
	}
	st.plainCnt++
}

// viableCluster reports whether a node sits in a cluster that can run the
// share protocol.
func viableCluster(st *nodeState) bool {
	return st.algebra != nil && st.myIdx >= 0 && shares.Viable(len(st.roster.Entries))
}
