// Package flood implements the path-annotated flooding primitive of
// Section 5.1 of the paper (rules (i)–(iv)), used by step (a) of Algorithms
// 1 and 3 and by phases 1–2 of the efficient Algorithm 2.
//
// Every flooded message has the form (body, Π) where Π is the path the
// message has traversed so far, excluding the direct sender. On receiving
// (body, Π) from neighbor u, node v:
//
//	(i)   discards it if Π·u is not a (simple) path of G;
//	(ii)  discards it if v already accepted a message with the same slot
//	      and path Π from u — this is the rule that, combined with local
//	      broadcast, prevents equivocation;
//	(iii) discards it if Π already contains v (guarantees termination in
//	      n rounds);
//	(iv)  otherwise records that it received body along the path Π·u·v
//	      and forwards (body, Π·u) to its neighbors.
//
// A "slot" identifies the logical message instance independently of its
// content: value flooding has one slot per origin, while Algorithm 2's
// phase-2 report flooding has one slot per (reporter, observed sender,
// observed path) so that a faulty forwarder cannot smuggle two conflicting
// contents for the same report past rule (ii).
//
// Message identity is integer end to end: incoming paths are interned into
// a graph.PathArena (validating rules (i) and (iii) in the same walk), body
// and slot identities are interned into an Ident table (see ident.go), the
// rule-(ii) dedup state is indexed by PathID (value slot) or keyed by one
// packed integer (every other slot), and receipts are held in an indexed
// ReceiptStore keyed by BodyID and PathID. Canonical key strings survive
// only at the trace boundary and on the wire — a Byzantine sender may forge
// any path, so identity must be established by the receiver, not trusted
// from the wire; the hint a message carries is a claim the receiver checks,
// never one it believes (see wire.go).
package flood

import (
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// Body is the algorithm-level content of a flooded message.
type Body interface {
	sim.Payload
	// Slot identifies the logical message instance for rule (ii)
	// deduplication; two bodies with equal Slot but different Key are
	// conflicting contents for the same instance.
	Slot() string
}

// ValueBody is the step-(a) body: a single binary value flooded by its
// origin. All value bodies of a phase share slot "" (one value per origin).
type ValueBody struct {
	Value sim.Value
}

var _ Body = ValueBody{}

// Key returns the canonical identity (a static string: this runs on every
// receipt record and body-key filter).
func (b ValueBody) Key() string {
	if b.Value == sim.Zero {
		return "v:0"
	}
	return "v:1"
}

// Slot returns the per-origin instance id (a node floods one value).
func (ValueBody) Slot() string { return "" }

// canonValueBodies holds the two ValueBody values pre-boxed as Body
// interface values, so publishing a phase body or substituting a default
// never allocates (ValueBody has exactly two inhabitants).
var canonValueBodies = [2]Body{ValueBody{Value: sim.Zero}, ValueBody{Value: sim.One}}

// CanonValueBody returns the shared pre-boxed Body for v. The returned
// value is immutable and safe to share across runs, observers, and
// goroutines.
func CanonValueBody(v sim.Value) Body {
	if v == sim.Zero {
		return canonValueBodies[0]
	}
	return canonValueBodies[1]
}

// Msg is the wire payload: (body, Π). Π excludes the direct sender. Hint is
// the sender's untrusted claim of the PathID of Π extended by itself (see
// wire.go); it is not part of the message's identity.
type Msg struct {
	Body Body
	Pi   graph.Path
	Hint graph.PathID
}

var _ sim.Payload = Msg{}

// Key returns the canonical identity of the message.
func (m Msg) Key() string {
	return m.Body.Key() + "@" + m.Pi.Key()
}

// Receipt records one rule-(iv) acceptance: node v received Body along the
// full origin→v path (the paper's "received value b along path Π·u",
// extended with the receiving node so the path is a genuine uv-path). The
// path is identified by its PathID in the owning ReceiptStore's arena;
// materialize it with ReceiptStore.Path when rendering.
type Receipt struct {
	Origin graph.NodeID
	PathID graph.PathID
	Body   Body
}

// Value extracts the binary value if the receipt's body is a ValueBody.
func (r Receipt) Value() (sim.Value, bool) {
	vb, ok := r.Body.(ValueBody)
	if !ok {
		return 0, false
	}
	return vb.Value, true
}

// acceptKey packs the rule-(ii) dedup key into one integer. The paper's
// key is (direct sender, slot, Π); since the interned full path Π·u
// determines both Π (its parent) and the sender u (its last node), the
// pair (slot, Π·u) is an equivalent key, and both components are small
// integers — the slot identity is interned in the run's Ident table and
// the path is its arena PathID. The value slot never reaches the map (see
// Flooder.seen); for every other slot a single 8-byte key keeps it on the
// fast hash path.
func acceptKey(slot int32, full graph.PathID) uint64 {
	return uint64(uint32(slot))<<32 | uint64(uint32(full))
}

// Flooder is the per-node flooding state machine for one flooding session.
// It is driven by the owning algorithm node: Start produces the initiation
// transmissions, Deliver processes one round's inbox and returns the
// forwards, and SynthesizeMissing applies the default-message rule for
// silent neighbors.
type Flooder struct {
	g  *graph.Graph
	me graph.NodeID

	arena *graph.PathArena
	// plan is set on a flooder that runs on a compiled plan's arena
	// (NewOnPlan): it boxes every transmission through Plan.Box — value
	// bodies pre-boxed from the plan's shared table, anything else boxed
	// per forward — and keeps no fwdCache.
	plan *Plan
	// ident interns body and slot identities for the integer dedup key and
	// the receipt store's body index.
	ident *Ident
	// seen and gen hold the rule-(ii) keys taken in the value slot — all of
	// step-(a) flooding: (EmptySlot, Π·u) is taken this session iff
	// seen[Π·u] == gen. Indexing by PathID costs no hashing, and Recycle
	// bumps gen instead of clearing anything. On a frozen arena the table
	// is sized once; on a growing one it grows with the arena.
	seen []uint32
	gen  uint32
	// accepted holds the rule-(ii) keys taken in every other slot
	// (Algorithm 2's reports and decisions); nil until one is, then sized
	// to the store's reserved capacity (one key per receipt at most), so
	// value-slot flooders never allocate it.
	accepted map[uint64]struct{}
	// initiatedBy[u] is true once an initiation (empty Π) was accepted
	// from neighbor u, used by the default-message rule.
	initiatedBy []bool
	// neighbor is the last sender provenance vouched for as adjacent (-1
	// before the first).
	neighbor graph.NodeID
	store    *ReceiptStore
	// fwdBuf is the reused Deliver output buffer; its contents are valid
	// until the next Deliver call.
	fwdBuf []sim.Outgoing
	// fwdCache caches a private-arena flooder's boxed transmissions by
	// (body identity, own extended path): transmitting a body along a path
	// always produces the same immutable Msg value, and value and vector
	// bodies repeat phase over phase, so the interface box is built once
	// and reused across rounds, phases, and recycled sessions. Like the
	// arena, the cache is pure value-deterministic identity state and
	// survives Recycle. Plan-backed flooders keep none: value bodies come
	// from the plan's table, and their other bodies — Algorithm 2's reports
	// and decisions — are forwarded once per (body, path) and never hit.
	fwdCache map[uint64]sim.Payload
}

// New creates a flooder for node me on graph g with private path-arena and
// identity state.
func New(g *graph.Graph, me graph.NodeID) *Flooder {
	return NewWithState(g, me, graph.NewPathArena(g), NewIdent())
}

// NewWithArena creates a flooder sharing an existing arena and a private
// identity table. Callers that also query body identities (Filter.Body)
// should use NewWithState so their table and the store's agree.
func NewWithArena(g *graph.Graph, me graph.NodeID, arena *graph.PathArena) *Flooder {
	return NewWithState(g, me, arena, NewIdent())
}

// NewWithState creates a flooder sharing an existing arena and identity
// table. Multi-phase protocols pass one per-run arena and one per-run
// Ident to every phase's flooder, so interned prefixes are reused, and
// PathIDs and BodyIDs stay stable across phases. Neither is safe for
// concurrent use; sharing is per protocol node, not across nodes.
func NewWithState(g *graph.Graph, me graph.NodeID, arena *graph.PathArena, ident *Ident) *Flooder {
	return &Flooder{
		g:           g,
		me:          me,
		arena:       arena,
		ident:       ident,
		gen:         1,
		initiatedBy: make([]bool, g.N()),
		neighbor:    -1,
		store:       NewReceiptStore(arena, ident),
	}
}

// NewOnPlan creates a flooder for node me that runs the dynamic rules on
// plan p's frozen arena — a delta-replay node, a churn node past its taint
// frontier, an Algorithm 2 node — and boxes every transmission through p
// (Plan.Box).
// The arena holds every path the plan's world can carry and is safe for
// any number of such flooders at once.
func NewOnPlan(p *Plan, me graph.NodeID, ident *Ident) *Flooder {
	f := NewWithState(p.g, me, p.arena, ident)
	f.plan = p
	return f
}

// boxedMsg returns the boxed Msg this node transmits for body when its own
// extended path — the receipt path Π·me, or its single-node path for an
// initiation — is ext. A plan-backed flooder boxes through the plan
// (Plan.Box), interning nothing. A private-arena flooder boxes on first
// use and caches under the acceptKey packing of the body's key identity
// (not its slot): two bodies with equal key identity are equal values, so
// the first-boxed Msg represents both.
func (f *Flooder) boxedMsg(body Body, ext graph.PathID) sim.Payload {
	if f.plan != nil {
		return f.plan.Box(body, ext)
	}
	ck := acceptKey(int32(f.ident.BodyKeyID(body)), ext)
	pl, ok := f.fwdCache[ck]
	if !ok {
		if f.fwdCache == nil {
			f.fwdCache = make(map[uint64]sim.Payload)
		}
		pl = hinted(f.arena, body, ext)
		f.fwdCache[ck] = pl
	}
	return pl
}

// take records the rule-(ii) key (slot, full) and reports whether it was
// free: false means a message for the slot already arrived along full this
// session.
func (f *Flooder) take(slot SlotID, full graph.PathID) bool {
	if slot != EmptySlot {
		key := acceptKey(int32(slot), full)
		if _, dup := f.accepted[key]; dup {
			return false
		}
		if f.accepted == nil {
			f.accepted = make(map[uint64]struct{}, cap(f.store.receipts))
		}
		f.accepted[key] = struct{}{}
		return true
	}
	if int(full) >= len(f.seen) {
		// full is interned, so the arena's current length covers it; a
		// growing arena doubles to keep the regrowth amortized.
		n := f.arena.Len()
		if !f.arena.Frozen() {
			n = max(n, 2*len(f.seen))
		}
		seen := make([]uint32, n)
		copy(seen, f.seen)
		f.seen = seen
	}
	if f.seen[full] == f.gen {
		return false
	}
	f.seen[full] = f.gen
	return true
}

// Recycle resets the flooder for a fresh flooding session over the same
// node, arena, and identity table: the value slot's rule-(ii) table is
// invalidated by moving to the next generation (cleared only when the
// 32-bit counter wraps), the other slots' map is cleared in place (buckets
// kept), the initiation flags are zeroed, and the receipt store is reset
// with all its index capacity retained (see ReceiptStore.Reset).
// Multi-phase protocols recycle one flooder per node across all phases
// instead of building a fresh one per phase — flooding structure repeats
// phase over phase, so after the first phase a session runs entirely in
// pre-grown memory.
func (f *Flooder) Recycle() {
	f.gen++
	if f.gen == 0 {
		clear(f.seen)
		f.gen = 1
	}
	clear(f.accepted)
	clear(f.initiatedBy)
	f.store.Reset()
}

// Expect sizes the receipt store for n expected receipts (see
// ReceiptStore.Reserve). Multi-phase protocols call it with the previous
// session's receipt count — flooding structure repeats phase over phase,
// so the last count predicts this one and the append targets of the round
// loop never re-grow from zero.
func (f *Flooder) Expect(n int) { f.store.Reserve(n) }

// Rounds returns the number of engine rounds a complete flooding session
// needs on an n-node graph: one initiation round plus n forwarding rounds
// (a simple path has at most n nodes; rule (iii) stops anything longer).
func Rounds(n int) int { return n + 1 }

// Start returns the initiation transmissions for the given bodies and, for
// each, records the trivial self receipt (the paper: "node v is deemed to
// have received its own γv along path Pvv containing only node v").
func (f *Flooder) Start(bodies ...Body) []sim.Outgoing {
	out := make([]sim.Outgoing, 0, len(bodies))
	self := f.arena.Root(f.me)
	for _, b := range bodies {
		f.store.Add(Receipt{Origin: f.me, PathID: self, Body: b})
		out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: f.boxedMsg(b, self)})
	}
	return out
}

// Deliver applies rules (i)–(iv) to one round's inbox and returns the
// forward transmissions. Non-flood payloads in the inbox are ignored. The
// returned slice is reused by the next Deliver call; callers must not
// retain it across rounds (the engine consumes it within the round).
func (f *Flooder) Deliver(inbox []sim.Delivery) []sim.Outgoing {
	out := f.fwdBuf[:0]
	for _, d := range inbox {
		m, ok := d.Payload.(Msg)
		if !ok {
			continue
		}
		if fwd, accepted := f.deliverOne(d.From, m); accepted {
			out = append(out, fwd)
		}
	}
	f.fwdBuf = out
	return out
}

// deliverOne processes a single received message, returning the forward
// and whether it was accepted.
func (f *Flooder) deliverOne(from graph.NodeID, m Msg) (sim.Outgoing, bool) {
	full := f.provenance(from, &m)
	if full == graph.NoPath {
		return sim.Outgoing{}, false
	}
	return f.accept(&m, full)
}

// provenance applies rule (i) to message m heard from neighbor from: it
// returns the interned Π·from, or NoPath when the message must be
// discarded — no body, a sender that is not a neighbor, or a Π·from that is
// not a simple path of G ending at the sender. (A faulty sender can only
// forge provenance along real paths ending at itself.) A verified hint
// names Π·from outright; otherwise interning validates node membership,
// adjacency, and simplicity in one walk, which repeat slices (honest
// forwarders resend the same materialized paths phase over phase and
// instance over instance) skip through the arena's slice-identity memo.
func (f *Flooder) provenance(from graph.NodeID, m *Msg) graph.PathID {
	if m.Body == nil {
		return graph.NoPath
	}
	// The direct sender must actually be a neighbor (self-deliveries are
	// impossible too); the engine guarantees this, but a defensive check
	// keeps the flooder safe when driven directly. An inbox arrives grouped
	// by sender, so remembering the last one vouched for makes it one
	// adjacency lookup per sender, not per message.
	if from != f.neighbor {
		if !f.g.HasEdge(from, f.me) {
			return graph.NoPath
		}
		f.neighbor = from
	}
	return m.ProvenanceIn(f.arena, from)
}

// accept applies rules (ii)–(iv) to a message whose provenance Π·u was
// established as full.
func (f *Flooder) accept(m *Msg, full graph.PathID) (sim.Outgoing, bool) {
	// Rule (iii): discard if Π already contains me. Π·u contains me iff Π
	// does — the sender u is a neighbor, never me. (Checked before rule
	// (ii) so that a discarded message takes no key; a message failing
	// either rule is discarded whichever is checked first.)
	if f.arena.Contains(full, f.me) {
		return sim.Outgoing{}, false
	}
	// Rule (ii): first content accepted for (sender, slot, Π) wins. The
	// key is (slot, Π·u), which is equivalent — see acceptKey.
	if !f.take(f.ident.BodySlotID(m.Body), full) {
		return sim.Outgoing{}, false
	}
	if len(m.Pi) == 0 {
		f.initiatedBy[f.arena.Last(full)] = true
	}
	// Rule (iv): record receipt along Π·u (·me) and forward (body, Π·u).
	// The receipt extension is valid by construction: u–me is an edge and
	// me is not on Π·u. It is also the hint of the forward.
	receipt := f.arena.Extend(full, f.me)
	f.store.Add(Receipt{Origin: f.arena.Origin(full), PathID: receipt, Body: m.Body})
	// A message whose path would exceed the graph cannot be extended
	// further by anyone, but forwarding is still required so neighbors
	// record their receipts.
	return sim.Outgoing{To: sim.Broadcast, Payload: f.boxedMsg(m.Body, receipt)}, true
}

// SynthesizeMissing applies the default-message rule of step (a): for every
// neighbor u that has not initiated flooding, act exactly as if (mk(u), ⊥)
// had been received from u. It returns the induced forwards and must be
// called once, after the first Deliver round of a session.
func (f *Flooder) SynthesizeMissing(mk func(neighbor graph.NodeID) Body) []sim.Outgoing {
	return f.AppendMissing(nil, mk)
}

// AppendMissing is SynthesizeMissing appending into an existing outbox
// slice — the round loop passes its Deliver output, so the default-message
// forwards ride in the same (reused) buffer instead of a fresh one.
func (f *Flooder) AppendMissing(out []sim.Outgoing, mk func(neighbor graph.NodeID) Body) []sim.Outgoing {
	for _, u := range f.g.AdjList(f.me) {
		if f.initiatedBy[u] {
			continue
		}
		if fwd, accepted := f.deliverOne(u, Msg{Body: mk(u), Pi: nil}); accepted {
			out = append(out, fwd)
		}
	}
	return out
}

// Store returns the flooder's indexed receipt store.
func (f *Flooder) Store() *ReceiptStore { return f.store }

// Arena returns the flooder's path arena.
func (f *Flooder) Arena() *graph.PathArena { return f.arena }

// Ident returns the flooder's identity table.
func (f *Flooder) Ident() *Ident { return f.ident }

// Receipts returns all recorded receipts in acceptance order. The slice is
// shared; callers must not modify it.
func (f *Flooder) Receipts() []Receipt { return f.store.All() }

// ReceiptsFromOrigin returns receipts whose provenance path starts at
// origin.
func (f *Flooder) ReceiptsFromOrigin(origin graph.NodeID) []Receipt {
	var out []Receipt
	for r := range f.store.FromOrigin(origin) {
		out = append(out, r)
	}
	return out
}
