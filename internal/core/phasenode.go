package core

import (
	"fmt"

	"lbcast/internal/combin"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// PhaseNode is a non-faulty node running Algorithm 1 (t = 0) or the hybrid
// Algorithm 3 (t > 0) for one consensus instance: the one-lane case of
// VectorPhaseNode, which it embeds, plus the sim.Decider view of its lane.
// It floods its γ as a flood.ValueBody, the body adversaries read and
// traces record.
type PhaseNode struct {
	VectorPhaseNode
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
// analysis; see VectorPhaseNode.init for the sharing contract.
func NewAlgo1NodeShared(topo *graph.Analysis, f int, me graph.NodeID, input sim.Value, arena *graph.PathArena) *PhaseNode {
	return newPhaseNode(topo, f, me, input, algo1PhasesShared(topo, f), arena)
}

// NewHybridNode builds a non-faulty Algorithm 3 node for the hybrid model
// with fault bound f, of which at most t may equivocate.
func NewHybridNode(g *graph.Graph, f, t int, me graph.NodeID, input sim.Value) *PhaseNode {
	return NewHybridNodeShared(graph.NewAnalysis(g), f, t, me, input, nil)
}

// NewHybridNodeShared is NewHybridNode drawing topology data from a shared
// analysis; see VectorPhaseNode.init for the sharing contract.
func NewHybridNodeShared(topo *graph.Analysis, f, t int, me graph.NodeID, input sim.Value, arena *graph.PathArena) *PhaseNode {
	return newPhaseNode(topo, f, me, input, hybridPhasesShared(topo, f, t), arena)
}

func newPhaseNode(topo *graph.Analysis, f int, me graph.NodeID, input sim.Value, phases []PhaseSpec, arena *graph.PathArena) *PhaseNode {
	nd := new(PhaseNode)
	nd.init(topo, f, me, []sim.Value{input}, phases, arena)
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
func (nd *PhaseNode) Gamma() sim.Value { return nd.gammas[0] }

// Reset returns the node to its initial protocol state with a fresh input;
// see VectorPhaseNode.Reset.
func (nd *PhaseNode) Reset(input sim.Value) {
	nd.VectorPhaseNode.Reset([]sim.Value{input})
}

// Decision reports the decided output: after all phases complete, or as
// soon as the early-decision rule fires (EnableEarlyDecision).
func (nd *PhaseNode) Decision() (sim.Value, bool) { return nd.LaneDecision(0) }

// String renders a compact description for traces.
func (nd *PhaseNode) String() string {
	return fmt.Sprintf("phasenode(%d, phase %d/%d, γ=%s)", nd.me, nd.phaseIdx, len(nd.phases), nd.Gamma())
}
