package core

import (
	"fmt"

	"lbcast/internal/combin"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// PhaseNode is a non-faulty node running Algorithm 1 (t = 0) or the hybrid
// Algorithm 3 (t > 0). Execution is divided into phases, one per PhaseSpec;
// each phase runs one complete flooding session of the node's state γ
// (step (a)), then computes Zv/Nv (step (b)) and conditionally updates γ
// (step (c)). After the final phase the node decides γ.
type PhaseNode struct {
	phaseCore
	gamma sim.Value

	// Early-decision support (EnableEarlyDecision). phaseStartGamma is
	// the value flooded in the current phase; earlyDecided/earlyValue
	// latch a decision reached before the final phase via the observed
	// unanimity rule. An early-decided node keeps executing phases
	// unchanged so that the other nodes' executions are unaffected.
	earlyDecided    bool
	earlyValue      sim.Value
	phaseStartGamma sim.Value
}

var (
	_ sim.Node         = (*PhaseNode)(nil)
	_ sim.Decider      = (*PhaseNode)(nil)
	_ sim.InboxIgnorer = (*PhaseNode)(nil)
)

// NewAlgo1Node builds a non-faulty Algorithm 1 node with the given binary
// input and private topology/arena state. All nodes of an execution must
// be built with the same g and f.
func NewAlgo1Node(g *graph.Graph, f int, me graph.NodeID, input sim.Value) *PhaseNode {
	return NewAlgo1NodeShared(graph.NewAnalysis(g), f, me, input, nil)
}

// NewAlgo1NodeShared is NewAlgo1Node drawing topology data from a shared
// analysis; see newPhaseCore for the sharing contract.
func NewAlgo1NodeShared(topo *graph.Analysis, f int, me graph.NodeID, input sim.Value, arena *graph.PathArena) *PhaseNode {
	return newPhaseNode(topo, f, me, input, algo1PhasesShared(topo, f), arena)
}

// NewHybridNode builds a non-faulty Algorithm 3 node for the hybrid model
// with fault bound f, of which at most t may equivocate.
func NewHybridNode(g *graph.Graph, f, t int, me graph.NodeID, input sim.Value) *PhaseNode {
	return NewHybridNodeShared(graph.NewAnalysis(g), f, t, me, input, nil)
}

// NewHybridNodeShared is NewHybridNode drawing topology data from a shared
// analysis; see newPhaseCore for the sharing contract.
func NewHybridNodeShared(topo *graph.Analysis, f, t int, me graph.NodeID, input sim.Value, arena *graph.PathArena) *PhaseNode {
	return newPhaseNode(topo, f, me, input, hybridPhasesShared(topo, f, t), arena)
}

func newPhaseNode(topo *graph.Analysis, f int, me graph.NodeID, input sim.Value, phases []PhaseSpec, arena *graph.PathArena) *PhaseNode {
	nd := &PhaseNode{gamma: input}
	nd.phaseCore = newPhaseCore(topo, f, me, phases, arena, nd)
	return nd
}

// PhaseRounds returns the engine rounds one phase occupies.
func PhaseRounds(n int) int { return flood.Rounds(n) }

// Algo1Rounds returns the total engine rounds Algorithm 1 needs on an
// n-node graph with fault bound f. The phases are counted, not enumerated.
func Algo1Rounds(n, f int) int {
	return int(combin.CountSubsetsUpTo(n, f).Int64()) * PhaseRounds(n)
}

// HybridRounds returns the total engine rounds Algorithm 3 needs, counting
// its (F, T) phases without enumerating them.
func HybridRounds(n, f, t int) int {
	return int(combin.CountFTPairs(n, f, t).Int64()) * PhaseRounds(n)
}

// Gamma exposes the current state γv (for tests and tracing).
func (nd *PhaseNode) Gamma() sim.Value { return nd.gamma }

// Reset returns the node to its initial protocol state with a fresh input,
// recycling every buffer it grew during previous runs (see
// phaseCore.rewind). The run-level wiring (UseReplay, EnableEarlyDecision)
// is preserved, so a reset node re-runs under exactly the configuration it
// was pooled with.
func (nd *PhaseNode) Reset(input sim.Value) {
	nd.rewind()
	nd.gamma = input
	nd.earlyDecided = false
	nd.earlyValue = 0
	nd.phaseStartGamma = 0
}

// Decision reports the decided output: after all phases complete, or as
// soon as the early-decision rule fires (EnableEarlyDecision).
func (nd *PhaseNode) Decision() (sim.Value, bool) {
	if nd.done {
		return nd.gamma, true
	}
	if nd.earlyDecided {
		return nd.earlyValue, true
	}
	return 0, false
}

// openPhase floods γv.
func (nd *PhaseNode) openPhase(bool) flood.Body {
	nd.phaseStartGamma = nd.gamma
	return flood.CanonValueBody(nd.gamma)
}

// defaultBody is the default value's body.
func (*PhaseNode) defaultBody(graph.NodeID) flood.Body {
	return flood.CanonValueBody(sim.DefaultValue)
}

// endPhase runs steps (b) and (c) of the current phase.
func (nd *PhaseNode) endPhase() {
	spec := nd.phases[nd.phaseIdx]
	st := nd.store
	if nd.earlyOK && !nd.earlyDecided && nd.observedUnanimity(st) {
		nd.earlyDecided = true
		nd.earlyValue = nd.phaseStartGamma
	}

	// Step (b): for each u ∈ V−T pick the (deterministic) uv-path Puv
	// that excludes F∪T and read the value received along it. Zv collects
	// the nodes whose value arrived as 0; everything else (including
	// nodes whose Puv delivered nothing) lands in Nv.
	var zv graph.Set
	for _, u := range nd.g.Nodes() {
		if spec.T.Contains(u) {
			continue
		}
		if val, ok := nd.valueAlongChosenPath(u, spec.Excl, st); ok && val == sim.Zero {
			zv.Add(u)
		}
	}
	nv := nd.all &^ spec.T &^ zv

	// Step (c): select Av/Bv by the four cases, using ϕ = f − |T|. An
	// empty Av admits no path, so γ stays (the query filter would read the
	// empty set as "any origin").
	av, bv := selectAvBv(zv, nv, spec.F, nd.f, nd.f-spec.T.Len())
	if !bv.Contains(nd.me) || av == 0 {
		return
	}
	// If γ was received along f+1 node-disjoint Avv-paths excluding F∪T,
	// adopt it. (Both values qualifying simultaneously is impossible when
	// the fault bound holds; checking 0 first keeps ties deterministic.)
	for _, delta := range []sim.Value{sim.Zero, sim.One} {
		fil := flood.Filter{
			Origins: av,
			Body:    flood.ValueKeyID(delta),
			Exclude: spec.Excl,
		}
		if nd.scratch.ReceivedOnDisjointPaths(st, fil, nd.f+1, flood.DisjointExceptLast) {
			nd.gamma = delta
			return
		}
	}
}

// observedUnanimity implements the early-decision predicate: the value x
// this node flooded at the start of the phase was also received from every
// other node along f+1 internally node-disjoint paths (no exclusions).
// With at most f actual faults, at least one of any f+1 internally
// disjoint paths has a fault-free interior, so a matching receipt proves
// the origin really flooded x — over all origins, that every non-faulty
// node's state is x.
func (nd *PhaseNode) observedUnanimity(st *flood.ReceiptStore) bool {
	want := flood.ValueKeyID(nd.phaseStartGamma)
	for _, u := range nd.g.Nodes() {
		if u == nd.me {
			continue
		}
		fil := flood.Filter{
			Origins: graph.NewSet(u),
			Body:    want,
		}
		if !nd.scratch.ReceivedOnDisjointPaths(st, fil, nd.f+1, flood.InternallyDisjoint) {
			return false
		}
	}
	return true
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

// valueAlongChosenPath implements the step-(b) read: choose a single
// uv-path excluding excl (BFS-shortest, hence identical across phases and
// runs) and return the value recorded along exactly that path, if any.
func (nd *PhaseNode) valueAlongChosenPath(u graph.NodeID, excl graph.Set, st *flood.ReceiptStore) (sim.Value, bool) {
	if u == nd.me {
		return nd.gamma, true
	}
	pid := nd.chosenPath(u, excl)
	if pid == graph.NoPath {
		// Cannot happen on graphs satisfying the theorem's conditions
		// (Lemma 5.4 / D.4); treat as "nothing received".
		return 0, false
	}
	return st.ValueAt(pid)
}

// String renders a compact description for traces.
func (nd *PhaseNode) String() string {
	return fmt.Sprintf("phasenode(%d, phase %d/%d, γ=%s)", nd.me, nd.phaseIdx, len(nd.phases), nd.gamma)
}
