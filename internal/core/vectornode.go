package core

import (
	"strings"

	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file implements the phase node of Algorithms 1 and 3: one state
// machine executing one or many consensus instances ("lanes") at once,
// with a single flooding session per phase. A one-lane node floods its
// value as a flood.ValueBody; a wider one floods a VectorBody carrying
// every lane's value in one body.
//
// The soundness of the collapse is structural: a benign instance (no
// Byzantine overrides anywhere) floods with input-independent structure —
// every node initiates, every accepted (slot, Π) is forwarded, and
// acceptance order depends only on the graph and the engine's canonical
// delivery order, never on the values carried. All benign lanes of a
// batch therefore accept exactly the same (slot, Π) sets in the same
// order, and their executions differ only in the values along those
// paths. One shared flooding session with a VectorBody per message
// reproduces each lane's independent execution exactly: rules (i)–(iv)
// are value-blind, and every per-lane read (step (b) path reads, step (c)
// disjoint-receipt queries, the early-decision certificate) projects its
// lane out of the shared receipts.
//
// Faulty instances do not collapse — a Byzantine node's transmissions
// differ per instance, so their acceptance structure diverges — and run
// one lane each; the eval batch runner groups lanes accordingly.

// VectorBody is the multi-lane step-(a) flood body: Values[l] is lane l's
// value. It is immutable after construction (the Payload contract).
type VectorBody struct {
	Values []sim.Value
}

var _ flood.Body = VectorBody{}

// Key returns the canonical identity: "vv:" plus one bit per lane.
func (b VectorBody) Key() string {
	var sb strings.Builder
	sb.Grow(3 + len(b.Values))
	sb.WriteString("vv:")
	for _, v := range b.Values {
		if v == sim.Zero {
			sb.WriteByte('0')
		} else {
			sb.WriteByte('1')
		}
	}
	return sb.String()
}

// Slot returns the per-origin instance id, matching ValueBody: one vector
// value per origin per phase.
func (VectorBody) Slot() string { return "" }

// InternKey supplies the integer identity without rendering the bit
// string on every receipt: the Values slice is immutable and forwarded by
// reference, so slice identity implies content identity and the rendering
// runs once per distinct vector per node.
func (b VectorBody) InternKey(t *flood.Ident) flood.BodyID {
	if len(b.Values) == 0 {
		return t.KeyID(b.Key())
	}
	if id, ok := t.MemoKey(&b.Values[0], len(b.Values), 0); ok {
		return id
	}
	return t.SetMemoKey(&b.Values[0], len(b.Values), 0, t.KeyID(b.Key()))
}

// InternSlot returns the pre-reserved empty-slot identity.
func (VectorBody) InternSlot(*flood.Ident) flood.SlotID { return flood.EmptySlot }

var (
	_ flood.KeyInterner  = VectorBody{}
	_ flood.SlotInterner = VectorBody{}
)

// VectorPhaseNode is a non-faulty node running Algorithm 1 (t = 0) or the
// hybrid Algorithm 3 (t > 0) for one or more lanes. Execution is divided
// into phases, one per PhaseSpec; each phase runs one complete flooding
// session of the lanes' states γ (step (a)), then computes each lane's
// Zv/Nv (step (b)) and conditionally updates its γ (step (c)). After the
// final phase every lane decides its γ. The flooding work is shared; the
// per-lane state (γ, early decision) and the phase-end computations are
// per lane. It is not a sim.Decider — lanes decide individually; see
// LaneDecision, and PhaseNode for the one-lane Decider.
type VectorPhaseNode struct {
	g      *graph.Graph
	me     graph.NodeID
	f      int
	phases []PhaseSpec
	// all is the set of the graph's nodes.
	all graph.Set
	// topo is the shared read-only topology analysis the step-(b) path
	// choices are drawn from. It is immutable and safe to share across
	// all nodes of a run and across the instances of a batch.
	topo *graph.Analysis

	phaseIdx     int
	roundInPhase int
	done         bool
	// flooder serves every dynamic phase, recycled at each phase start.
	flooder *flood.Flooder
	// store holds the current phase's receipts: the flooder's store on the
	// dynamic path, a plan-sized store filled by bulk installation on the
	// replay path. The phase end reads only the store, so the two paths
	// share every phase-end computation.
	store *flood.ReceiptStore

	// replay, when non-nil, is the lane group's use of a compiled plan (see
	// UseReplay): which phases replay it, and how the others flood on its
	// arena. replayStore is the run's planned store view, recycled phase
	// over phase; replayBuf is the reused outbox buffer of the replay path.
	replay      *ReplayShared
	replayStore *flood.ReceiptStore
	replayBuf   []sim.Outgoing

	// arena is the per-run path arena shared by every phase's flooding
	// session: interned prefixes are reused phase over phase and PathIDs
	// stay stable, which lets stepB cache chosen paths as integers. ident
	// is the per-run identity table, shared by the phases the same way.
	arena *graph.PathArena
	ident *flood.Ident
	// stepB caches the deterministic step-(b) path choice per (origin,
	// exclusion set): a private instance over a private arena, created by
	// the first phase end, or the analysis-wide cache of the plan whose
	// frozen arena a replaying or overlay node adopts.
	stepB *stepBCache

	// scratch backs the phase-end disjoint-receipt queries, and lanes
	// picks their strategy from the lane count.
	scratch flood.QueryScratch
	lanes   laneShare
	// earlyOK enables the observed-unanimity rule (EnableEarlyDecision).
	earlyOK bool

	// The per-lane state, sized by sizeLanes. phaseStartGamma is the value
	// flooded in the current phase; earlyDecided/earlyValues latch a
	// decision reached before the final phase via the observed unanimity
	// rule. An early-decided lane keeps executing phases unchanged so that
	// the other nodes' executions are unaffected. zv and undecided are the
	// phase end's per-lane Zv sets and unanimity flags.
	gammas          []sim.Value
	earlyDecided    []bool
	earlyValues     []sim.Value
	phaseStartGamma []sim.Value
	zv              []graph.Set
	undecided       []bool
	// one holds a one-lane node's lane state inline, so that building one
	// allocates no lane storage.
	one struct {
		vals  [3]sim.Value
		flags [2]bool
		zv    [1]graph.Set
	}
	// valsBuf, in phantom replay mode only, backs the published phase
	// vector in place of a per-phase allocation; see openPhase.
	valsBuf []sim.Value
}

var (
	_ sim.Node         = (*VectorPhaseNode)(nil)
	_ sim.LaneDecider  = (*VectorPhaseNode)(nil)
	_ sim.InboxIgnorer = (*VectorPhaseNode)(nil)
)

// NewVectorAlgo1Node builds a multi-lane Algorithm 1 node over the given
// per-lane inputs. topo and arena follow the init sharing contract; arena
// may be nil for a private arena.
func NewVectorAlgo1Node(topo *graph.Analysis, f int, me graph.NodeID, inputs []sim.Value, arena *graph.PathArena) *VectorPhaseNode {
	return newVectorPhaseNode(topo, f, me, inputs, algo1PhasesShared(topo, f), arena)
}

// NewVectorHybridNode builds a multi-lane Algorithm 3 node.
func NewVectorHybridNode(topo *graph.Analysis, f, t int, me graph.NodeID, inputs []sim.Value, arena *graph.PathArena) *VectorPhaseNode {
	return newVectorPhaseNode(topo, f, me, inputs, hybridPhasesShared(topo, f, t), arena)
}

func newVectorPhaseNode(topo *graph.Analysis, f int, me graph.NodeID, inputs []sim.Value, phases []PhaseSpec, arena *graph.PathArena) *VectorPhaseNode {
	nd := new(VectorPhaseNode)
	nd.init(topo, f, me, inputs, phases, arena)
	return nd
}

// init sets up a node in place. topo is read-only and may be shared by
// every node of a run (and every instance of a batch); it is safe for
// concurrent use. arena, when non-nil, is shared message-identity state:
// it is NOT safe for concurrent use and may only be shared among the nodes
// of one run — in practice the co-located instances of one batch node
// (same graph vertex). A nil arena stays nil until the first dynamic
// flooding round: a node switched to replay adopts the plan's frozen arena
// instead and never touches a private one.
func (nd *VectorPhaseNode) init(topo *graph.Analysis, f int, me graph.NodeID, inputs []sim.Value, phases []PhaseSpec, arena *graph.PathArena) {
	g := topo.Graph()
	nd.g, nd.me, nd.f, nd.phases, nd.all, nd.topo, nd.arena = g, me, f, phases, graph.NewSet(g.Nodes()...), topo, arena
	nd.sizeLanes(len(inputs))
	copy(nd.gammas, inputs)
}

// sizeLanes sizes the per-lane state for b lanes, keeping its capacity.
// The values it holds are left to the caller.
func (nd *VectorPhaseNode) sizeLanes(b int) {
	if cap(nd.gammas) < b {
		vals, flags, zv := nd.one.vals[:], nd.one.flags[:], nd.one.zv[:]
		if b > 1 {
			vals, flags, zv = make([]sim.Value, 3*b), make([]bool, 2*b), make([]graph.Set, b)
		}
		nd.gammas, nd.earlyValues, nd.phaseStartGamma = vals[:b:b], vals[b:2*b:2*b], vals[2*b:]
		nd.earlyDecided, nd.undecided, nd.zv = flags[:b:b], flags[b:], zv
	}
	nd.gammas, nd.earlyValues, nd.phaseStartGamma = nd.gammas[:b], nd.earlyValues[:b], nd.phaseStartGamma[:b]
	nd.earlyDecided, nd.undecided, nd.zv = nd.earlyDecided[:b], nd.undecided[:b], nd.zv[:b]
}

// Lanes returns the number of lanes.
func (nd *VectorPhaseNode) Lanes() int { return len(nd.gammas) }

// Reset returns the node to its initial protocol state over a fresh lane
// input vector, recycling every buffer grown during previous runs (the
// planned store view, the flooder, replay and query scratch). The run
// wiring (UseReplay, EnableEarlyDecision) is preserved, so a reset node
// re-runs under exactly the configuration it was pooled with; the lane
// count may change between runs.
func (nd *VectorPhaseNode) Reset(inputs []sim.Value) {
	nd.sizeLanes(len(inputs))
	copy(nd.gammas, inputs)
	clear(nd.earlyDecided)
	clear(nd.earlyValues)
	clear(nd.phaseStartGamma)
	nd.rewind()
}

// LaneGamma returns lane l's current state γ.
func (nd *VectorPhaseNode) LaneGamma(l int) sim.Value { return nd.gammas[l] }

// LaneDecision reports lane l's decided output: after all phases
// complete, or as soon as the lane's early-decision rule fires.
func (nd *VectorPhaseNode) LaneDecision(l int) (sim.Value, bool) {
	if nd.done {
		return nd.gammas[l], true
	}
	if nd.earlyDecided[l] {
		return nd.earlyValues[l], true
	}
	return 0, false
}

// openPhase records the phase-start states and returns the body the node
// floods this phase: the pre-boxed value body for one lane, the lane
// vector for more. reuse reports that nothing outside the run retains the
// body past the phase (phantom replay), so its backing storage may be
// overwritten at the next phase start.
func (nd *VectorPhaseNode) openPhase(reuse bool) flood.Body {
	copy(nd.phaseStartGamma, nd.gammas)
	if len(nd.gammas) == 1 {
		return flood.CanonValueBody(nd.gammas[0])
	}
	var vals []sim.Value
	if reuse {
		// Phantom mode materializes no payloads, so the only holders of
		// the published body are the group's own planned stores, all of
		// which reset before the next phase publishes: the backing array
		// can be overwritten phase over phase. With an observer
		// (non-phantom), retained payloads forbid this.
		if cap(nd.valsBuf) < len(nd.gammas) {
			nd.valsBuf = make([]sim.Value, len(nd.gammas))
		}
		vals = nd.valsBuf[:len(nd.gammas)]
	} else {
		vals = make([]sim.Value, len(nd.gammas))
	}
	copy(vals, nd.gammas)
	return VectorBody{Values: vals}
}

// defaultBody is the default message substituted for a silent
// neighbour's initiation: the default value in every lane.
func (nd *VectorPhaseNode) defaultBody(graph.NodeID) flood.Body {
	if len(nd.gammas) == 1 {
		return flood.CanonValueBody(sim.DefaultValue)
	}
	vals := make([]sim.Value, len(nd.gammas))
	for i := range vals {
		vals[i] = sim.DefaultValue
	}
	return VectorBody{Values: vals}
}

// valueViews backs a one-lane node's step-(b) reads: one-element views of
// 0 and 1, read-only.
var valueViews = [2]sim.Value{sim.Zero, sim.One}

// laneValues returns the lane values received along path pid, nil when
// none were. A node reads only the body kind it floods: the value body for
// one lane (flood.ReceiptStore.ValueAt; step (b) tests only for 0, so any
// other value reads as 1), the first VectorBody for more.
func (nd *VectorPhaseNode) laneValues(pid graph.PathID) []sim.Value {
	if len(nd.gammas) == 1 {
		v, ok := nd.store.ValueAt(pid)
		switch {
		case !ok:
			return nil
		case v == sim.Zero:
			return valueViews[:1]
		default:
			return valueViews[1:]
		}
	}
	for r := range nd.store.AtPath(pid) {
		if vb, ok := r.Body.(VectorBody); ok {
			return vb.Values
		}
	}
	return nil
}

// endPhase runs steps (b) and (c) of the current phase for every lane.
// Each lane's queries run over projections of the phase's receipts, which
// reproduces an independent execution exactly: rule (ii) admits one
// content per (slot, path), so filtering by body before or after the path
// dedup selects the same receipts. laneShare picks the strategy.
func (nd *VectorPhaseNode) endPhase() {
	spec := nd.phases[nd.phaseIdx]
	st := nd.store
	if nd.earlyOK {
		nd.checkUnanimity(st)
	}

	// Step (b), shared across lanes: for each u ∈ V−T pick the
	// (deterministic) uv-path Puv that excludes F∪T and read the values
	// received along it; one receipt read yields every lane's value. Lane
	// l's Zv collects the nodes whose lane-l value arrived as 0; everything
	// else (including nodes whose Puv delivered nothing) lands in Nv.
	origins := nd.all &^ spec.T
	clear(nd.zv)
	for u := range origins.All() {
		vals := nd.gammas
		if u != nd.me {
			pid := nd.chosenPath(u, spec.Excl)
			if pid == graph.NoPath {
				// Cannot happen on graphs satisfying the theorem's
				// conditions (Lemma 5.4 / D.4); treat as "nothing
				// received".
				continue
			}
			vals = nd.laneValues(pid)
		}
		for l, v := range vals[:min(len(vals), len(nd.zv))] {
			if v == sim.Zero {
				nd.zv[l].Add(u)
			}
		}
	}

	// Step (c): select Av/Bv by the four cases, using ϕ = f − |T|. An
	// empty Av admits no path, so γ stays (the query filter would read the
	// empty set as "any origin"). If δ was received along f+1 node-disjoint
	// Avv-paths excluding F∪T, adopt it. (Both values qualifying
	// simultaneously is impossible when the fault bound holds; checking 0
	// first keeps ties deterministic.)
	nd.lanes.query(&nd.scratch, st, flood.Filter{Exclude: spec.Excl}, len(nd.gammas), nd.g.N())
	for l, zv := range nd.zv {
		av, bv := selectAvBv(zv, origins&^zv, spec.F, nd.f, nd.f-spec.T.Len())
		if !bv.Contains(nd.me) || av == 0 {
			continue
		}
		for _, delta := range []sim.Value{sim.Zero, sim.One} {
			if nd.lanes.holds(&nd.scratch, l, delta, av, nd.f+1, flood.DisjointExceptLast) {
				nd.gammas[l] = delta
				break
			}
		}
	}
}

// checkUnanimity applies the early-decision predicate lane by lane: lane
// l decides the value x it flooded at the start of the phase if x was
// also received from every other node along f+1 internally node-disjoint
// paths (no exclusions). With at most f actual faults, at least one of any
// f+1 internally disjoint paths has a fault-free interior, so a matching
// receipt proves the origin really flooded x — over all origins, that
// every non-faulty node's state in that lane is x.
func (nd *VectorPhaseNode) checkUnanimity(st *flood.ReceiptStore) {
	pending := 0
	for l, decided := range nd.earlyDecided {
		nd.undecided[l] = !decided
		if !decided {
			pending++
		}
	}
	if pending == 0 {
		return
	}
	for _, u := range nd.g.Nodes() {
		if u == nd.me {
			continue
		}
		nd.lanes.query(&nd.scratch, st, flood.Filter{Origins: graph.NewSet(u)}, len(nd.gammas), nd.g.N())
		for l, ok := range nd.undecided {
			if ok && !nd.lanes.holds(&nd.scratch, l, nd.phaseStartGamma[l], 0, nd.f+1, flood.InternallyDisjoint) {
				nd.undecided[l] = false
				pending--
			}
		}
		if pending == 0 {
			return
		}
	}
	for l, ok := range nd.undecided {
		if ok {
			nd.earlyDecided[l] = true
			nd.earlyValues[l] = nd.phaseStartGamma[l]
		}
	}
}

// selectAvBv implements the four-case Av/Bv selection of step (c)
// (Algorithm 1 uses ϕ = f; Algorithm 3 uses ϕ = f − |T|):
//
//	case 1: |Zv∩F| ≤ ⌊ϕ/2⌋ and |Nv| > f  → Av = Nv, Bv = Zv
//	case 2: |Zv∩F| ≤ ⌊ϕ/2⌋ and |Nv| ≤ f  → Av = Zv, Bv = Nv
//	case 3: |Zv∩F| > ⌊ϕ/2⌋ and |Zv| > f  → Av = Zv, Bv = Nv
//	case 4: |Zv∩F| > ⌊ϕ/2⌋ and |Zv| ≤ f  → Av = Nv, Bv = Zv
func selectAvBv(zv, nv, fSet graph.Set, f, phi int) (av, bv graph.Set) {
	zf := (zv & fSet).Len()
	switch {
	case zf <= phi/2 && nv.Len() > f:
		return nv, zv
	case zf <= phi/2 && nv.Len() <= f:
		return zv, nv
	case zf > phi/2 && zv.Len() > f:
		return zv, nv
	default: // zf > phi/2 && zv.Len() <= f
		return nv, zv
	}
}
