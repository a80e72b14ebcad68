package core

import (
	"slices"
	"strconv"
	"strings"

	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file implements Algorithm 2 (Appendix C): the efficient O(n)-round
// Byzantine consensus algorithm for 2f-connected graphs under local
// broadcast. Three phases, each one flooding session:
//
//	phase 1 — every node floods its input value;
//	phase 2 — every node floods, per neighbor z, a report containing z's
//	          complete ordered phase-1 transmission transcript (under
//	          local broadcast all of z's neighbors heard the identical
//	          transcript); afterwards every node runs fault
//	          identification;
//	phase 3 — type B nodes (those that identified fewer than f faults)
//	          decide the majority of reliably received inputs and flood
//	          the decision; type A nodes (those that know all f faults)
//	          adopt a decision received from a non-faulty node along a
//	          fault-free path, falling back to the majority of non-faulty
//	          inputs.
//
// Reliable receive follows Definition C.1: a node v reliably receives a
// message flooded by u if u = v, v is a neighbor of u, or v received it
// identically along f+1 internally-disjoint uv-paths.
//
// Fault identification refines the paper's phase-2 rule to be sound against
// both tampering and omission: walking each of 2f vertex-disjoint w→u paths
// from an origin w whose value b was reliably received, the invariant "the
// previous node's first transmission for this path prefix carried b" is
// maintained, and a node whose reliably-known transcript contradicts the
// invariant (wrong first value, or no transmission at all) is marked
// faulty. A node whose transcript is not reliably known must be non-faulty
// (Lemma C.2: every faulty node's transmissions are reliably received by
// everyone), so the walk passes over it. This realizes the tool described
// in Section 5.3: "each node can observe all messages sent by any faulty
// node [... and] can either observe all messages sent by another non-faulty
// node, or learn that it is non-faulty."

// TranscriptEntry is one observed phase-1 transmission in a wire
// transcript: the phase round it was transmitted in and the message as
// heard. A receiver establishes the message's identity itself
// (flood.Ident.MsgKey): its hint is a claim like any other on the wire,
// honored only when the receiver's arena verifies it. The canonical
// rendering survives only inside TranscriptBody.Key.
type TranscriptEntry struct {
	Round int32
	Msg   flood.Msg
}

// TranscriptBody is the phase-2 report: the flooding reporter's record of
// everything node Observed transmitted during phase 1, in reception order.
type TranscriptBody struct {
	Observed graph.NodeID
	// Entries are the observed transmissions, in order.
	Entries []TranscriptEntry
}

var (
	_ flood.Body         = TranscriptBody{}
	_ flood.KeyInterner  = TranscriptBody{}
	_ flood.SlotInterner = TranscriptBody{}
)

// Key returns the full canonical identity (observed node plus transcript),
// rendered as "tr:<observed>:<round>|<msg key>;<round>|<msg key>;...",
// each message key being flood.Msg.Key's "<body key>@<path key>".
func (b TranscriptBody) Key() string {
	n := len("tr:") + 4
	for _, e := range b.Entries {
		n += 10 + 3*len(e.Msg.Pi) // round, '|', body key, '@', path, ';'
	}
	var sb strings.Builder
	sb.Grow(n)
	var num [20]byte
	sb.WriteString("tr:")
	sb.Write(strconv.AppendInt(num[:0], int64(b.Observed), 10))
	sb.WriteByte(':')
	for i, e := range b.Entries {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.Write(strconv.AppendInt(num[:0], int64(e.Round), 10))
		sb.WriteByte('|')
		sb.WriteString(e.Msg.Body.Key())
		sb.WriteByte('@')
		for j, u := range e.Msg.Pi { // graph.Path.Key, written in place
			if j > 0 {
				sb.WriteString("->")
			}
			sb.Write(strconv.AppendInt(num[:0], int64(u), 10))
		}
	}
	return sb.String()
}

// Slot identifies the report instance independent of its content: one
// transcript claim per (reporter, observed) pair.
func (b TranscriptBody) Slot() string { return "tr:" + strconv.Itoa(int(b.Observed)) }

// trSlotNS is the Ident node-slot namespace of transcript slots.
const trSlotNS = 1

// InternKey supplies the integer identity without rendering the
// transcript: the identity is the compact content key of the entries'
// verified message identities (flood.Ident.SeqKeyID), and since the
// Entries slice is immutable and forwarded by reference, slice identity
// implies content identity, so that key is built once per distinct
// transcript slice per node.
func (b TranscriptBody) InternKey(t *flood.Ident) flood.BodyID {
	if len(b.Entries) == 0 {
		return t.SeqKeyID(b.Observed, 0, nil)
	}
	if id, ok := t.MemoKey(&b.Entries[0], len(b.Entries), int32(b.Observed)); ok {
		return id
	}
	return t.SetMemoKey(&b.Entries[0], len(b.Entries), int32(b.Observed), t.SeqKeyID(b.Observed, len(b.Entries), b.entry))
}

// entry returns entry i's round and message (the flood.Ident.SeqKeyID
// accessor).
func (b TranscriptBody) entry(i int) (int32, flood.Msg) {
	return b.Entries[i].Round, b.Entries[i].Msg
}

// InternSlot supplies the integer slot identity via the per-node slot
// cache, so phase-2 dedup never rebuilds "tr:<observed>" strings.
func (b TranscriptBody) InternSlot(t *flood.Ident) flood.SlotID {
	if id, ok := t.NodeSlot(trSlotNS, b.Observed); ok {
		return id
	}
	return t.SetNodeSlot(trSlotNS, b.Observed, b.Slot())
}

// DecisionBody is the phase-3 payload flooded by type B nodes.
type DecisionBody struct {
	Value sim.Value
}

var _ flood.Body = DecisionBody{}

// Key returns the canonical identity.
func (b DecisionBody) Key() string {
	if b.Value == sim.Zero {
		return "d:0"
	}
	return "d:1"
}

// Slot returns the per-origin instance id (one decision per node).
func (DecisionBody) Slot() string { return "d" }

// EfficientNode is a non-faulty node running Algorithm 2.
type EfficientNode struct {
	g     *graph.Graph
	me    graph.NodeID
	f     int
	input sim.Value

	// arena is the path arena of all three phases' flooding sessions and of
	// the synthetic zv-paths of reliable transcript grouping: the compiled
	// plan's frozen arena, shared read-only by every node (see
	// NewEfficientNodeShared).
	arena *graph.PathArena
	// ident is the per-run identity table shared by all three phases'
	// flooding sessions and by transcript identification, so receipt
	// BodyIDs and transcript message keys live in one integer namespace.
	ident *flood.Ident
	// topo is the shared read-only topology analysis; its memoized
	// DisjointPaths supply the fault-identification walk layouts for all
	// nodes of an execution (see NewEfficientNodeShared).
	topo *graph.Analysis
	// flooder runs all three flooding sessions, recycled at each phase
	// start; its store holds the current phase's receipts.
	flooder *flood.Flooder
	// scratch holds the disjoint-path queries' reusable buffers.
	scratch flood.QueryScratch
	round   int

	// Phase-1 observation logs (local broadcast: everything every
	// neighbor transmits is heard), as heard: heard[u] is the ordered
	// transmission log of neighbor u (nil for non-neighbors). Complete at
	// the end of phase 1, each log is the phase-2 report about u verbatim.
	heard [][]TranscriptEntry

	// What phase 1 leaves behind once the flooder moves on: the
	// Definition C.1 reliable value of every node, and the phase's value
	// receipts in acceptance order (the type A fallback reads them after
	// phase 2).
	relValues      []relValue
	phase1Receipts []valueReceipt

	// Post-phase-2 state.
	identified graph.Set // identified faulty nodes
	typeA      bool

	// transcripts caches reliable transcripts, indexed by node id.
	transcripts []*transcriptInfo
	// prefixIDs is walkPath's scratch.
	prefixIDs []graph.PathID

	decided  bool
	decision sim.Value
}

// valueReceipt is one phase-1 value receipt: its full path and value.
type valueReceipt struct {
	path graph.PathID
	val  sim.Value
}

// transcriptInfo is a node's reliable knowledge of one node's phase-1
// transcript: whether it is reliably known, and if so the first
// occurrence of each transmission identity in it (the fault-identification
// walks probe two identities per path node; a linear rescan per probe is
// quadratic).
type transcriptInfo struct {
	known bool
	index map[flood.MsgKey]entryHit
}

// entryHit locates a transcript entry: its recorded round and its position
// in the entry list.
type entryHit struct{ round, pos int }

// newTranscriptInfo indexes the reliably known transcript of node z.
// Entries with a negative round (representable only in claims forged by
// faulty reporters) are unindexable.
func (nd *EfficientNode) newTranscriptInfo(z graph.NodeID, entries []TranscriptEntry) *transcriptInfo {
	ti := &transcriptInfo{known: true, index: make(map[flood.MsgKey]entryHit, len(entries))}
	for pos, e := range entries {
		if e.Round < 0 {
			continue
		}
		k := nd.ident.MsgKey(e.Msg, z)
		if _, dup := ti.index[k]; !dup {
			ti.index[k] = entryHit{round: int(e.Round), pos: pos}
		}
	}
	return ti
}

// hit returns the first transcript occurrence of the message identity key,
// if any.
func (ti *transcriptInfo) hit(key flood.MsgKey) (entryHit, bool) {
	h, ok := ti.index[key]
	return h, ok
}

type relValue struct {
	ok  bool
	val sim.Value
}

var (
	_ sim.Node    = (*EfficientNode)(nil)
	_ sim.Decider = (*EfficientNode)(nil)
)

// NewEfficientNode builds a non-faulty Algorithm 2 node over the graph's
// shared analysis (graph.Graph.SharedAnalysis), so the nodes of one
// execution share one compiled plan and one set of walk layouts. The
// graph must be 2f-connected (Theorem 5.6); the constructor does not
// re-verify this.
func NewEfficientNode(g *graph.Graph, f int, me graph.NodeID, input sim.Value) *EfficientNode {
	return NewEfficientNodeShared(g.SharedAnalysis(), f, me, input, nil)
}

// NewEfficientNodeShared is NewEfficientNode drawing topology data from a
// shared analysis. Passing one analysis to every node of an execution (and
// every instance of a batch) computes each of fault identification's n²
// max-flow walk layouts once instead of once per node, and floods every
// node on the analysis's compiled plan arena (flood.PlanFor): it holds
// every simple path of the graph, so it accepts exactly what a growing
// arena would; it is frozen, so any number of nodes may read it
// concurrently; and it is shared, so the path hints honest senders attach
// verify at every receiver. The analysis never affects results. arena is
// ignored — it keeps the signature of NewAlgo1NodeShared and
// NewHybridNodeShared, whose nodes may share a growing arena.
func NewEfficientNodeShared(topo *graph.Analysis, f int, me graph.NodeID, input sim.Value, arena *graph.PathArena) *EfficientNode {
	g := topo.Graph()
	plan := flood.PlanFor(topo)
	ident := flood.NewIdentOn(plan.Arena())
	nd := &EfficientNode{
		g:           g,
		me:          me,
		f:           f,
		input:       input,
		arena:       plan.Arena(),
		ident:       ident,
		topo:        topo,
		flooder:     flood.NewOnPlan(plan, me, ident),
		heard:       make([][]TranscriptEntry, g.N()),
		transcripts: make([]*transcriptInfo, g.N()),
	}
	// Phase 1 records at most one receipt per simple path ending here —
	// the plan's schedule, exactly — and an honest neighbor transmits once
	// per phase-1 receipt.
	nd.flooder.Expect(plan.NodeReceipts(me))
	for _, u := range g.AdjList(me) {
		nd.heard[u] = make([]TranscriptEntry, 0, plan.NodeReceipts(u))
	}
	return nd
}

// EfficientRounds returns the total engine rounds Algorithm 2 needs on an
// n-node graph: three flooding sessions.
func EfficientRounds(n int) int { return 3 * flood.Rounds(n) }

// ID returns the node id.
func (nd *EfficientNode) ID() graph.NodeID { return nd.me }

// Decision reports the decided output value.
func (nd *EfficientNode) Decision() (sim.Value, bool) {
	if !nd.decided {
		return 0, false
	}
	return nd.decision, true
}

// TypeA reports whether the node classified itself as a type A node
// (identified all f faults) after phase 2. Valid once phase 3 has started.
func (nd *EfficientNode) TypeA() bool { return nd.typeA }

// Identified returns the set of faulty nodes identified in phase 2.
func (nd *EfficientNode) Identified() graph.Set { return nd.identified }

// Step advances the node one synchronous round.
func (nd *EfficientNode) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	pr := flood.Rounds(nd.g.N())
	r := nd.round
	nd.round++
	var out []sim.Outgoing
	switch {
	case r < pr:
		out = nd.stepPhase1(r, inbox)
	case r < 2*pr:
		out = nd.stepPhase2(r-pr, inbox)
	case r < 3*pr:
		out = nd.stepPhase3(r-2*pr, inbox)
		if nd.round == 3*pr {
			nd.finish()
		}
	}
	return out
}

func (nd *EfficientNode) stepPhase1(r int, inbox []sim.Delivery) []sim.Outgoing {
	nd.recordHeard(r, inbox)
	var out []sim.Outgoing
	switch r {
	case 0:
		out = nd.flooder.Start(flood.ValueBody{Value: nd.input})
	case 1:
		out = nd.flooder.Deliver(inbox)
		out = nd.flooder.AppendMissing(out, func(graph.NodeID) flood.Body {
			return flood.ValueBody{Value: sim.DefaultValue}
		})
	default:
		out = nd.flooder.Deliver(inbox)
	}
	if r == flood.Rounds(nd.g.N())-1 {
		nd.settlePhase1()
	}
	return out
}

// settlePhase1 keeps what later phases read of phase 1's receipts before
// the flooder is recycled: every node's reliable value and the value
// receipts themselves.
func (nd *EfficientNode) settlePhase1() {
	store := nd.flooder.Store()
	nd.relValues = make([]relValue, nd.g.N())
	for u := range nd.relValues {
		val, ok := nd.computeReliableValue(store, graph.NodeID(u))
		nd.relValues[u] = relValue{ok: ok, val: val}
	}
	nd.phase1Receipts = make([]valueReceipt, 0, store.Len())
	for _, r := range store.All() {
		if v, ok := r.Value(); ok {
			nd.phase1Receipts = append(nd.phase1Receipts, valueReceipt{path: r.PathID, val: v})
		}
	}
}

func (nd *EfficientNode) stepPhase2(r int, inbox []sim.Delivery) []sim.Outgoing {
	var out []sim.Outgoing
	if r == 0 {
		nd.flooder.Recycle()
		// Phase-2 receipts repeat phase 1's path structure once per report
		// slot, and a reporter carries one slot per neighbor — about the
		// average degree (2M/N) slots per origin.
		nd.flooder.Expect(len(nd.phase1Receipts) * 2 * nd.g.M() / nd.g.N())
		bodies := make([]flood.Body, 0, nd.g.Degree(nd.me))
		for _, z := range nd.g.Neighbors(nd.me) {
			bodies = append(bodies, TranscriptBody{Observed: z, Entries: nd.heard[z]})
		}
		out = nd.flooder.Start(bodies...)
	} else {
		out = nd.flooder.Deliver(inbox)
	}
	if r == flood.Rounds(nd.g.N())-1 {
		nd.identifyFaults()
		nd.typeA = nd.identified.Len() >= nd.f && nd.f > 0
	}
	return out
}

func (nd *EfficientNode) stepPhase3(r int, inbox []sim.Delivery) []sim.Outgoing {
	var out []sim.Outgoing
	if r == 0 {
		// Phase 3 floods one decision per type-B origin — the shape of
		// phase 1 — into the store phase 2 grew.
		nd.flooder.Recycle()
		if !nd.typeA {
			// Type B: decide the majority of reliably received input
			// values (ties go to 0) and flood the decision.
			nd.decision = nd.majorityReliable()
			nd.decided = true
			out = nd.flooder.Start(DecisionBody{Value: nd.decision})
		}
	} else {
		out = nd.flooder.Deliver(inbox)
	}
	return out
}

// finish completes phase 3 for type A nodes: adopt a decision received from
// a non-faulty node along a fault-free path, else fall back to the majority
// of non-faulty inputs.
func (nd *EfficientNode) finish() {
	if nd.decided {
		return
	}
	for _, r := range nd.flooder.Receipts() {
		db, ok := r.Body.(DecisionBody)
		if !ok {
			continue
		}
		if nd.identified.Contains(r.Origin) {
			continue // decision claimed by a known-faulty node
		}
		if !nd.arena.ExcludesInternal(r.PathID, nd.identified) {
			continue // a faulty relay could have tampered
		}
		nd.decision = db.Value
		nd.decided = true
		return
	}
	nd.decision = nd.majorityNonFaulty()
	nd.decided = true
}

// recordHeard appends every phase-1 flood transmission heard from each
// neighbor to the per-neighbor transcript log. stepRound is the round the
// inbox was *delivered* in; the transmissions happened one round earlier.
func (nd *EfficientNode) recordHeard(stepRound int, inbox []sim.Delivery) {
	for _, d := range inbox {
		if m, ok := d.Payload.(flood.Msg); ok {
			nd.heard[d.From] = append(nd.heard[d.From], TranscriptEntry{Round: int32(stepRound - 1), Msg: m})
		}
	}
}

// reliableValue returns the Definition C.1 outcome for phase-1 input
// values: the value reliably received from u, if any (settled at the end
// of phase 1).
func (nd *EfficientNode) reliableValue(u graph.NodeID) (sim.Value, bool) {
	rv := nd.relValues[u]
	return rv.val, rv.ok
}

// computeReliableValue implements Definition C.1 over the phase-1
// receipts.
func (nd *EfficientNode) computeReliableValue(phase1 *flood.ReceiptStore, u graph.NodeID) (sim.Value, bool) {
	if u == nd.me {
		return nd.input, true
	}
	if nd.g.HasEdge(u, nd.me) {
		// Clause 2: direct neighbors hear the initiation (or apply the
		// default substitution) themselves.
		return phase1.ValueAt(nd.arena.Extend(nd.arena.Root(u), nd.me))
	}
	// Clause 3: identical value along f+1 internally-disjoint uv-paths.
	for _, delta := range []sim.Value{sim.Zero, sim.One} {
		fil := flood.Filter{
			Origins: graph.NewSet(u),
			Body:    flood.ValueKeyID(delta),
		}
		if nd.scratch.ReceivedOnDisjointPaths(phase1, fil, nd.f+1, flood.InternallyDisjoint) {
			return delta, true
		}
	}
	return 0, false
}

// reliableTranscriptInfo returns the cached record of z's complete ordered
// phase-1 transcript, if it is reliably known to this node: own log for
// direct neighbors, otherwise an identical transcript claim received along
// f+1 internally-disjoint zv-paths (each path being z, then a reporting
// neighbor of z, then the report flood's relay path). z is never the node
// itself: the walks take their own behavior as known correct.
func (nd *EfficientNode) reliableTranscriptInfo(z graph.NodeID) *transcriptInfo {
	if c := nd.transcripts[z]; c != nil {
		return c
	}
	ti := &transcriptInfo{}
	if entries, known := nd.computeReliableTranscript(z); known {
		ti = nd.newTranscriptInfo(z, entries)
	}
	nd.transcripts[z] = ti
	return ti
}

func (nd *EfficientNode) computeReliableTranscript(z graph.NodeID) ([]TranscriptEntry, bool) {
	if nd.g.HasEdge(z, nd.me) {
		return nd.heard[z], true
	}
	// Group transcript claims about z by content (the interned body
	// identity), tracking for each distinct content the zv-paths it
	// arrived along. Identification runs at the end of phase 2, so the
	// flooder's store holds the reports. The store interns a report's
	// content key on its first BodyID read, here: reports about this
	// node's neighbors are never grouped and never pay for one.
	type claimGroup struct {
		body  TranscriptBody
		paths []flood.Receipt // synthetic receipts with the z-prefixed path
		key   string          // the canonical rendering, when ordering needs it
	}
	reports := nd.flooder.Store()
	var groups []*claimGroup
	byContent := make(map[flood.BodyID]*claimGroup)
	for i, r := range reports.All() {
		tb, ok := r.Body.(TranscriptBody)
		if !ok || tb.Observed != z {
			continue
		}
		// The reporter (flood origin) must be a neighbor of z, and z must
		// not appear on the relay path, otherwise z·path is not a simple
		// zv-path.
		if !nd.g.HasEdge(r.Origin, z) || nd.arena.Contains(r.PathID, z) {
			continue
		}
		key := reports.BodyID(i)
		grp, ok := byContent[key]
		if !ok {
			grp = &claimGroup{body: tb}
			byContent[key] = grp
			groups = append(groups, grp)
		}
		// Intern the synthetic zv-path z·relay; it is a valid simple path
		// (z–reporter is an edge, z is not on the relay path).
		zp := nd.arena.Root(z)
		for _, u := range reports.Path(r) {
			zp = nd.arena.Extend(zp, u)
		}
		grp.paths = append(grp.paths, flood.Receipt{Origin: z, PathID: zp, Body: tb})
	}
	// Deterministic group order: by canonical content string, exactly the
	// order the string-keyed grouping iterated in. Contested transcripts
	// are rare (they take a lying reporter), so they alone pay for the
	// renderings.
	if len(groups) > 1 {
		for _, grp := range groups {
			grp.key = grp.body.Key()
		}
		slices.SortFunc(groups, func(a, b *claimGroup) int { return strings.Compare(a.key, b.key) })
	}
	for _, grp := range groups {
		if nd.scratch.SelectDisjoint(nd.arena, grp.paths, nd.f+1, flood.InternallyDisjoint) {
			return grp.body.Entries, true
		}
	}
	return nil, false
}

// identifyFaults runs the phase-2 fault identification walks.
func (nd *EfficientNode) identifyFaults() {
	nd.identified = graph.NewSet()
	for _, w := range nd.g.Nodes() {
		b, ok := nd.reliableValue(w)
		if !ok {
			continue
		}
		for _, u := range nd.g.Nodes() {
			if u == w {
				continue
			}
			for _, p := range nd.topo.DisjointPaths(w, u, 2*nd.f) {
				nd.walkPath(p, b)
			}
		}
	}
}

// walkPath scans one w→u path (p[0] = origin) for the first node whose
// reliably-known transcript contradicts its timed forwarding obligation
// under origin value b, and marks it faulty.
//
// The timeline invariant: the origin's (possibly deemed) initiation is at
// round 0; an honest node at position i hears its predecessor's slot
// transmission at round prev+1 and forwards (b, p[:i]) in that same round,
// exactly once. A reliably-known transcript showing the wrong value, an
// off-schedule round, or nothing at all inside the observable window
// convicts the node. Transmissions in the phase's final round are heard
// only after the phase boundary and never appear in transcripts, so a
// timeline that reaches that window ends the walk without a verdict.
func (nd *EfficientNode) walkPath(p graph.Path, b sim.Value) {
	// Transmissions at rounds <= lastVisible are recorded by reporters
	// (heard one round later, still inside phase 1).
	lastVisible := flood.Rounds(nd.g.N()) - 2
	// Intern the walked path once: every prefix p[:i] is then an ancestor
	// entry, and its PathID is half of each probe identity.
	prefixIDs := slices.Grow(nd.prefixIDs[:0], len(p))[:len(p)]
	nd.prefixIDs = prefixIDs
	for at, i := nd.arena.Intern(p), len(p)-1; i >= 0; at, i = nd.arena.Parent(at), i-1 {
		prefixIDs[i] = at
	}
	goodBody := flood.ValueKeyID(b)
	badBody := flood.ValueKeyID(1 - b)
	prev := 0 // round of the established predecessor transmission
	for i := 1; i < len(p)-1; i++ {
		z := p[i]
		due := prev + 1 // the round an honest z forwards in
		if z == nd.me {
			// Own behavior is known correct; own forward (if the chain
			// was intact) happened at the due round.
			prev = due
			continue
		}
		ti := nd.reliableTranscriptInfo(z)
		if !ti.known {
			// Not reliably observable ⇒ z is non-faulty (Lemma C.2
			// contrapositive); its honest forward keeps the timeline.
			prev = due
			continue
		}
		// The Π of z's expected forward is p[:i]: the probe identities are
		// the (value, Π) message keys, packed without any lookup.
		gHit, gOK := ti.hit(flood.PackMsgKey(goodBody, prefixIDs[i-1]))
		bHit, bOK := ti.hit(flood.PackMsgKey(badBody, prefixIDs[i-1]))
		// The verdict reads z's FIRST transmission for this slot: the
		// earlier transcript position wins when both contents appear.
		tampered := bOK && (!gOK || bHit.pos < gHit.pos)
		switch {
		case !gOK && !bOK:
			if due <= lastVisible {
				// Obligated inside the observable window but silent.
				nd.identified.Add(z)
			}
			// Otherwise the forward would fall outside the window:
			// unobservable, no verdict.
			return
		case tampered:
			// z's first transmission for this slot carried the flipped
			// value: tampering (an honest node forwards exactly what the
			// established predecessor content was).
			nd.identified.Add(z)
			return
		case gHit.round != due:
			// Right value, wrong round: an honest node forwards exactly
			// one round after its predecessor.
			nd.identified.Add(z)
			return
		default:
			prev = gHit.round
		}
	}
}

// majorityReliable is the type B decision rule: majority of reliably
// received input values, ties to 0.
func (nd *EfficientNode) majorityReliable() sim.Value {
	ones, zeros := 0, 0
	for _, w := range nd.g.Nodes() {
		if v, ok := nd.reliableValue(w); ok {
			if v == sim.One {
				ones++
			} else {
				zeros++
			}
		}
	}
	if ones > zeros {
		return sim.One
	}
	return sim.Zero
}

// majorityNonFaulty is the type A fallback: majority of the input values of
// all nodes outside the identified fault set, read along fault-free paths.
func (nd *EfficientNode) majorityNonFaulty() sim.Value {
	ones, zeros := 0, 0
	for _, w := range nd.g.Nodes() {
		if nd.identified.Contains(w) {
			continue
		}
		if w == nd.me {
			if nd.input == sim.One {
				ones++
			} else {
				zeros++
			}
			continue
		}
		v, ok := nd.valueAlongCleanPath(w)
		if !ok {
			continue
		}
		if v == sim.One {
			ones++
		} else {
			zeros++
		}
	}
	if ones > zeros {
		return sim.One
	}
	return sim.Zero
}

// valueAlongCleanPath returns the phase-1 value received from w along any
// path that excludes the identified fault set. All such receipts agree,
// because every internal node on such a path is non-faulty.
func (nd *EfficientNode) valueAlongCleanPath(w graph.NodeID) (sim.Value, bool) {
	for _, r := range nd.phase1Receipts {
		if nd.arena.Origin(r.path) == w && nd.arena.ExcludesInternal(r.path, nd.identified) {
			return r.val, true
		}
	}
	return 0, false
}
