// Package lbcast is a library for exact Byzantine consensus on undirected
// graphs under the local broadcast communication model, reproducing
//
//	M. S. Khan, S. S. Naqvi, N. H. Vaidya,
//	"Exact Byzantine Consensus on Undirected Graphs under Local Broadcast
//	Model", PODC 2019 (arXiv:1903.11677).
//
// Under local broadcast, a message sent by a node is received identically
// by all of its neighbors, so a faulty node cannot equivocate. The paper
// shows consensus tolerating f Byzantine faults is possible exactly when
// the communication graph has minimum degree ≥ 2f and vertex connectivity
// ≥ ⌊3f/2⌋+1 — strictly weaker than the classical point-to-point
// requirements (n ≥ 3f+1, connectivity ≥ 2f+1).
//
// The package exposes:
//
//   - graph construction and the tight feasibility checks (Check*);
//   - three consensus algorithms: the exponential-phase Algorithm 1 for
//     the tight conditions, the O(n)-round Algorithm 2 for 2f-connected
//     graphs, and the hybrid-model Algorithm 3 that additionally tolerates
//     up to t equivocating faults;
//   - a deterministic synchronous network simulator with local broadcast,
//     point-to-point, and hybrid transports, plus a library of Byzantine
//     strategies for fault injection.
//
// Executions are driven through a Session: NewSession(graph, options...)
// validates the configuration once and Session.Run(ctx) executes it —
// reusable across runs, cancellable via context, observable through the
// Observer interface, and early-terminating by default (the run stops as
// soon as every honest node has decided instead of burning the
// algorithm's worst-case round budget). The one-shot Run(Config) form is
// kept as a convenience wrapper over Session.
//
// See the examples directory for runnable walkthroughs and DESIGN.md /
// EXPERIMENTS.md for the reproduction methodology.
package lbcast

import (
	"context"
	"fmt"

	"lbcast/internal/check"
	"lbcast/internal/eval"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// Re-exported core types. Aliases keep the internal packages hidden while
// letting external callers use their full method sets.
type (
	// Graph is a simple undirected communication graph on nodes 0..n-1.
	Graph = graph.Graph
	// NodeID identifies a vertex.
	NodeID = graph.NodeID
	// Set is a set of node ids, one bit per node of a graph of at most
	// 64 nodes. The zero Set is empty, and a copy is an independent set.
	Set = graph.Set
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Path is a node sequence with consecutive nodes adjacent.
	Path = graph.Path
	// Value is a binary consensus value (0 or 1).
	Value = sim.Value
	// Node is a per-node protocol state machine driven by the simulator.
	Node = sim.Node
	// Model selects the communication model.
	Model = sim.Model
	// Report is a feasibility check result.
	Report = check.Report
)

// Communication models and values.
const (
	// LocalBroadcast is the paper's model: every transmission is heard
	// identically by all neighbors.
	LocalBroadcast = sim.LocalBroadcast
	// PointToPoint is the classical model (equivocation possible).
	PointToPoint = sim.PointToPoint
	// Hybrid lets a designated subset of faulty nodes equivocate.
	Hybrid = sim.Hybrid

	// Zero and One are the two binary consensus values.
	Zero = sim.Zero
	One  = sim.One
)

// NewGraph returns an empty graph on n nodes. Sessions and batches run
// on graphs of at most 64 nodes, the most a Set holds, and reject larger
// ones; CheckLocalBroadcast and the other checks that need no node set
// work at any size.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewGraphFromEdges builds a graph on n nodes with the given edges. It
// rejects graphs of more than 64 nodes, the most a Set holds.
func NewGraphFromEdges(n int, edges []Edge) (*Graph, error) {
	return graph.NewFromEdges(n, edges)
}

// NewSet builds a node set.
func NewSet(nodes ...NodeID) Set { return graph.NewSet(nodes...) }

// Graph generators for common workload families.
var (
	// Cycle returns the n-cycle (tolerates f=1; the paper's Figure 1a is
	// Cycle(5)).
	Cycle = gen.Cycle
	// Complete returns K_n (K_{2f+1} tolerates f under local broadcast).
	Complete = gen.Complete
	// Circulant returns C_n(offsets).
	Circulant = gen.Circulant
	// Harary returns the minimal k-connected graph H_{k,n}.
	Harary = gen.Harary
	// Wheel returns the wheel graph on n nodes.
	Wheel = gen.Wheel
	// Hypercube returns the d-dimensional hypercube.
	Hypercube = gen.Hypercube
	// Random returns a seeded connected random graph.
	Random = gen.Random
	// Figure1a returns the paper's Figure 1(a) example (5-cycle, f=1).
	Figure1a = gen.Figure1a
	// Figure1b returns the Figure 1(b) stand-in (C_8(1,2), f=2).
	Figure1b = gen.Figure1b
)

// Feasibility checks.
var (
	// CheckLocalBroadcast evaluates the tight Theorem 4.1/5.1 conditions.
	CheckLocalBroadcast = check.LocalBroadcast
	// CheckEfficient evaluates Theorem 5.6's 2f-connectivity condition.
	CheckEfficient = check.Efficient
	// CheckHybrid evaluates the Theorem 6.1 conditions. With t > 0 it
	// enumerates node sets, so the graph must have at most 64 nodes.
	CheckHybrid = check.Hybrid
	// CheckPointToPoint evaluates the classical baseline conditions.
	CheckPointToPoint = check.PointToPoint
	// MaxFaultsLocalBroadcast returns the largest tolerable f under local
	// broadcast.
	MaxFaultsLocalBroadcast = check.MaxTolerableLocalBroadcast
	// MaxFaultsPointToPoint returns the largest tolerable f under
	// point-to-point.
	MaxFaultsPointToPoint = check.MaxTolerablePointToPoint
)

// AlgorithmChoice selects a consensus protocol.
type AlgorithmChoice = eval.Algorithm

// The implemented protocols.
const (
	// Algorithm1 is the phase-based algorithm for the tight conditions
	// (exponential phases).
	Algorithm1 = eval.Algo1
	// Algorithm2 is the efficient O(n)-round algorithm for 2f-connected
	// graphs.
	Algorithm2 = eval.Algo2
	// Algorithm3 is the hybrid-model algorithm.
	Algorithm3 = eval.Algo3
)

// Config describes one consensus execution.
type Config struct {
	// Graph is the communication graph (required).
	Graph *Graph
	// MaxFaults is the fault bound f the honest nodes assume.
	MaxFaults int
	// MaxEquivocating is the equivocation bound t (Algorithm3 only).
	MaxEquivocating int
	// Algorithm selects the protocol (default Algorithm1).
	Algorithm AlgorithmChoice
	// Inputs maps each node to its binary input.
	Inputs map[NodeID]Value
	// Byzantine overrides the listed nodes with adversarial Node
	// implementations (see the adversary strategies in this package's
	// internal library, or implement Node directly).
	Byzantine map[NodeID]Node
	// Model selects the transport (default LocalBroadcast).
	Model Model
	// Equivocators is consulted under the Hybrid model.
	Equivocators Set
}

// Result reports the judged outcome of a consensus execution.
type Result struct {
	// Decisions holds every honest node's output.
	Decisions map[NodeID]Value
	// Agreement, Validity, Termination are the three consensus
	// properties over the honest nodes.
	Agreement   bool
	Validity    bool
	Termination bool
	// Rounds is the number of synchronous rounds actually executed; it
	// is below RoundBudget when the run terminated early.
	Rounds int
	// RoundBudget is the worst-case round allowance the run had.
	RoundBudget int
	// Transmissions counts physical sends (a local broadcast counts
	// once); Deliveries counts message receptions.
	Transmissions int
	Deliveries    int
}

// OK reports whether all three consensus properties hold.
func (r Result) OK() bool { return r.Agreement && r.Validity && r.Termination }

// Run executes one consensus instance and judges agreement, validity and
// termination over the honest nodes. It is the one-shot form of
// NewSession(...).Run(context.Background()); like every Session run it
// terminates early once all honest nodes have decided. It does not verify
// the feasibility conditions first — combine with the Check functions to
// interpret failures on sub-threshold graphs.
func Run(cfg Config) (Result, error) {
	if cfg.Graph == nil {
		return Result{}, fmt.Errorf("lbcast: Config.Graph is required")
	}
	s, err := NewSession(cfg.Graph,
		WithAlgorithm(cfg.Algorithm),
		WithModel(cfg.Model),
		WithFaults(cfg.MaxFaults),
		WithEquivocating(cfg.MaxEquivocating),
		WithInputs(cfg.Inputs),
		WithByzantine(cfg.Byzantine),
		WithEquivocators(cfg.Equivocators),
	)
	if err != nil {
		return Result{}, err
	}
	return s.Run(context.Background())
}
