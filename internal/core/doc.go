// Package core implements the paper's consensus algorithms — the primary
// contribution of the reproduction:
//
//   - Algorithm 1 (Section 5.1): exact Byzantine consensus under the local
//     broadcast model on any graph with minimum degree ≥ 2f and vertex
//     connectivity ≥ ⌊3f/2⌋+1. One phase per candidate fault set F (|F| ≤
//     f), so the phase count is exponential in f.
//   - Algorithm 2 (Appendix C): the efficient O(n)-round algorithm for
//     2f-connected graphs, built on reliable receive (Definition C.1),
//     neighbor transcript reports, and fault identification.
//   - Algorithm 3 (Appendix D.2): the hybrid-model generalization where up
//     to t ≤ f faulty nodes may equivocate; one phase per (F, T) pair.
//     Algorithm 1 is exactly Algorithm 3 with t = 0, and the implementation
//     shares one state machine (VectorPhaseNode) for both, over one or
//     more lanes; PhaseNode is its one-lane case.
//
// All algorithm nodes implement sim.Node and are driven by a sim.Engine
// round by round. PhaseNode and EfficientNode are sim.Deciders;
// VectorPhaseNode decides lane by lane (sim.LaneDecider).
package core
