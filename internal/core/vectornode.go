package core

import (
	"slices"
	"strings"

	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file implements the value-vector lane group of the batched
// multi-instance engine: one PhaseNode-shaped state machine executing many
// benign consensus instances ("lanes") at once, with a single flooding
// session per phase whose messages carry every lane's value in one body.
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
// differ per instance, so their acceptance structure diverges — and stay
// on scalar PhaseNodes; the eval batch runner groups lanes accordingly.

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

// VectorPhaseNode runs Algorithm 1 (t = 0) or Algorithm 3 phases for many
// benign lanes at once. It shares PhaseNode's step-(a) driver (phaseCore)
// and mirrors its phase end exactly, lane by lane: the flooding work is
// shared, the per-lane state (γ, early decision) and the phase-end
// computations are per lane. It is not a sim.Decider — lanes
// decide individually; see LaneDecision.
type VectorPhaseNode struct {
	phaseCore
	gammas []sim.Value
	// readsBuf/readsValid are the per-origin step-(b) read table; lanes
	// shares the per-lane searches of one query, and undecidedBuf serves
	// the per-lane early-decision projection.
	readsBuf     []VectorBody
	readsValid   []bool
	lanes        laneShare
	undecidedBuf []bool
	// valsBuf, in phantom replay mode only, backs the published phase
	// vector in place of a per-phase allocation; see openPhase.
	valsBuf []sim.Value

	earlyDecided    []bool
	earlyValues     []sim.Value
	phaseStartGamma []sim.Value
}

var (
	_ sim.Node         = (*VectorPhaseNode)(nil)
	_ sim.LaneDecider  = (*VectorPhaseNode)(nil)
	_ sim.InboxIgnorer = (*VectorPhaseNode)(nil)
)

// NewVectorAlgo1Node builds a multi-lane Algorithm 1 node over the given
// per-lane inputs. topo and arena follow the newPhaseCore sharing
// contract; arena may be nil for a private arena.
func NewVectorAlgo1Node(topo *graph.Analysis, f int, me graph.NodeID, inputs []sim.Value, arena *graph.PathArena) *VectorPhaseNode {
	return newVectorPhaseNode(topo, f, me, inputs, algo1PhasesShared(topo, f), arena)
}

// NewVectorHybridNode builds a multi-lane Algorithm 3 node.
func NewVectorHybridNode(topo *graph.Analysis, f, t int, me graph.NodeID, inputs []sim.Value, arena *graph.PathArena) *VectorPhaseNode {
	return newVectorPhaseNode(topo, f, me, inputs, hybridPhasesShared(topo, f, t), arena)
}

func newVectorPhaseNode(topo *graph.Analysis, f int, me graph.NodeID, inputs []sim.Value, phases []PhaseSpec, arena *graph.PathArena) *VectorPhaseNode {
	nd := &VectorPhaseNode{
		gammas:          slices.Clone(inputs),
		earlyDecided:    make([]bool, len(inputs)),
		earlyValues:     make([]sim.Value, len(inputs)),
		phaseStartGamma: make([]sim.Value, len(inputs)),
	}
	nd.phaseCore = newPhaseCore(topo, f, me, phases, arena, nd)
	return nd
}

// Lanes returns the number of lanes.
func (nd *VectorPhaseNode) Lanes() int { return len(nd.gammas) }

// Reset returns the node to its initial protocol state over a fresh lane
// input vector, recycling every buffer grown during previous runs (the
// planned store view, the flooder, replay and query scratch, read
// tables). The run wiring (UseReplay, EnableEarlyDecision) is preserved;
// the lane count may change between runs.
func (nd *VectorPhaseNode) Reset(inputs []sim.Value) {
	b := len(inputs)
	if cap(nd.gammas) < b {
		nd.gammas = make([]sim.Value, b)
		nd.earlyDecided = make([]bool, b)
		nd.earlyValues = make([]sim.Value, b)
		nd.phaseStartGamma = make([]sim.Value, b)
	} else {
		nd.gammas = nd.gammas[:b]
		nd.earlyDecided = nd.earlyDecided[:b]
		nd.earlyValues = nd.earlyValues[:b]
		nd.phaseStartGamma = nd.phaseStartGamma[:b]
	}
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

// openPhase floods the lane vector.
func (nd *VectorPhaseNode) openPhase(reuse bool) flood.Body {
	copy(nd.phaseStartGamma, nd.gammas)
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

// defaultBody is the all-default lane vector.
func (nd *VectorPhaseNode) defaultBody(graph.NodeID) flood.Body {
	vals := make([]sim.Value, len(nd.gammas))
	for i := range vals {
		vals[i] = sim.DefaultValue
	}
	return VectorBody{Values: vals}
}

// endPhase runs steps (b) and (c) of the current phase for every lane.
// The candidate receipts (exclusion-filtered, value-blind) are gathered
// once per phase; each lane's queries then run over projections of that
// one set, which reproduces the scalar behavior exactly — rule (ii) admits
// one content per (slot, path), so filtering by body before or after the
// path dedup selects the same receipts. Lanes whose projections coincide
// share one search (see laneShare).
func (nd *VectorPhaseNode) endPhase() {
	spec := nd.phases[nd.phaseIdx]
	st := nd.store
	if nd.earlyOK {
		nd.checkUnanimity(st)
	}

	// Step (b), shared across lanes: one chosen path per origin; one
	// receipt read yields every lane's value. The read table is a reused
	// node-indexed pair of slices (the former per-phase map).
	n := nd.g.N()
	if cap(nd.readsBuf) < n {
		nd.readsBuf = make([]VectorBody, n)
		nd.readsValid = make([]bool, n)
	}
	reads := nd.readsBuf[:n]
	readsValid := nd.readsValid[:n]
	clear(readsValid)
	for _, u := range nd.g.Nodes() {
		if spec.T.Contains(u) || u == nd.me {
			continue
		}
		pid := nd.chosenPath(u, spec.Excl)
		if pid == graph.NoPath {
			continue
		}
		for r := range st.AtPath(pid) {
			if vb, ok := r.Body.(VectorBody); ok {
				reads[u] = vb
				readsValid[u] = true
				break
			}
		}
	}

	// Step (c) candidates, shared across lanes and values: every receipt
	// whose path excludes F∪T. Lane- and value-specific filtering happens
	// inside the per-lane selection.
	nd.lanes.group(nd.scratch.Candidates(st, flood.Filter{Exclude: spec.Excl}), n)

	origins := nd.all &^ spec.T
	for l := range nd.gammas {
		// Lane l's Zv, built from the read table; Nv is the rest of V−T.
		var zv graph.Set
		for u := range origins.All() {
			if vs := reads[u].Values; readsValid[u] && l < len(vs) && vs[l] == sim.Zero {
				zv.Add(u)
			}
		}
		if origins.Contains(nd.me) && nd.gammas[l] == sim.Zero {
			zv.Add(nd.me)
		}
		av, bv := selectAvBv(zv, origins&^zv, spec.F, nd.f, nd.f-spec.T.Len())
		if !bv.Contains(nd.me) || av == 0 {
			continue
		}
		// Did lane l receive delta along f+1 node-disjoint (except at
		// this node) Avv-paths among the candidates? The lane projection
		// of the step-(c) flood.ReceivedOnDisjointPaths query.
		for _, delta := range []sim.Value{sim.Zero, sim.One} {
			nd.lanes.signature(l, delta, av)
			if nd.lanes.search(&nd.scratch, nd.arena, nd.f+1, flood.DisjointExceptLast) {
				nd.gammas[l] = delta
				break
			}
		}
	}
}

// checkUnanimity applies the per-lane early-decision certificate: lane l
// decides its phase-start value x if x was received from every other node
// along f+1 internally node-disjoint paths. The per-origin candidate sets
// are value-blind and gathered once; each lane projects its value, and
// lanes with equal projections share one search.
func (nd *VectorPhaseNode) checkUnanimity(st *flood.ReceiptStore) {
	pending := 0
	for l := range nd.gammas {
		if !nd.earlyDecided[l] {
			pending++
		}
	}
	if pending == 0 {
		return
	}
	if cap(nd.undecidedBuf) < len(nd.gammas) {
		nd.undecidedBuf = make([]bool, len(nd.gammas))
	}
	undecided := nd.undecidedBuf[:len(nd.gammas)]
	for l := range undecided {
		undecided[l] = !nd.earlyDecided[l]
	}
	for _, u := range nd.g.Nodes() {
		if u == nd.me {
			continue
		}
		nd.lanes.group(nd.scratch.Candidates(st, flood.Filter{Origins: graph.NewSet(u)}), nd.g.N())
		for l := range nd.gammas {
			if !undecided[l] {
				continue
			}
			nd.lanes.signature(l, nd.phaseStartGamma[l], 0)
			if !nd.lanes.search(&nd.scratch, nd.arena, nd.f+1, flood.InternallyDisjoint) {
				undecided[l] = false
				pending--
			}
		}
		if pending == 0 {
			return
		}
	}
	for l, ok := range undecided {
		if ok {
			nd.earlyDecided[l] = true
			nd.earlyValues[l] = nd.phaseStartGamma[l]
		}
	}
}
