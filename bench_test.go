package lbcast

// Benchmark harness: one benchmark per experiment in DESIGN.md §4 /
// EXPERIMENTS.md (E1–E11), each exercising the representative workload of
// that experiment, plus micro-benchmarks for the hot substrate operations.
// Regenerate with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/core"
	"lbcast/internal/eval"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

func benchInputs(n int) map[graph.NodeID]sim.Value {
	m := make(map[graph.NodeID]sim.Value, n)
	for i := 0; i < n; i++ {
		m[graph.NodeID(i)] = sim.Value(i % 2)
	}
	return m
}

// mustSession builds a Session from public options or fails the benchmark.
func mustSession(b *testing.B, g *Graph, opts ...Option) *Session {
	b.Helper()
	s, err := NewSession(g, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// mustRunOK runs the session once and asserts consensus held.
func mustRunOK(b *testing.B, s *Session) {
	b.Helper()
	res, err := s.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if !res.OK() {
		b.Fatalf("consensus failed: %+v", res)
	}
}

// BenchmarkFigure1aCycle (E1): Algorithm 1 on the Figure 1(a) 5-cycle with
// one tampering fault. The tamperer is stateful, so the session is rebuilt
// with a fresh instance per iteration.
func BenchmarkFigure1aCycle(b *testing.B) {
	g := gen.Figure1a()
	for i := 0; i < b.N; i++ {
		mustRunOK(b, mustSession(b, g,
			WithFaults(1),
			WithInputs(benchInputs(g.N())),
			WithByzantine(map[NodeID]Node{
				2: NewTamperFault(g, 2, PhaseRounds(g), 42),
			}),
		))
	}
}

// BenchmarkEarlyTermination pairs the same fault-free Algorithm 1 instance
// with and without early termination — the session redesign's headline
// speedup, tracked across PRs via cmd/lbcbench.
func BenchmarkEarlyTermination(b *testing.B) {
	g := gen.Figure1a()
	b.Run("early", func(b *testing.B) {
		s := mustSession(b, g, WithFaults(1), WithInputs(benchInputs(g.N())))
		for i := 0; i < b.N; i++ {
			mustRunOK(b, s)
		}
	})
	b.Run("full-budget", func(b *testing.B) {
		s := mustSession(b, g, WithFaults(1), WithInputs(benchInputs(g.N())), WithFullBudget())
		for i := 0; i < b.N; i++ {
			mustRunOK(b, s)
		}
	})
}

// BenchmarkFigure1bCirculant (E2): Algorithm 1 on the Figure 1(b) stand-in
// C8(1,2) with two silent faults (f = 2). Silent faults are stateless, so
// one session is reused across iterations.
func BenchmarkFigure1bCirculant(b *testing.B) {
	g := gen.Figure1b()
	s := mustSession(b, g,
		WithFaults(2),
		WithInputs(benchInputs(g.N())),
		WithByzantine(map[NodeID]Node{
			0: NewSilentFault(0),
			4: NewSilentFault(4),
		}),
	)
	for i := 0; i < b.N; i++ {
		mustRunOK(b, s)
	}
}

// BenchmarkNecessityDegree (E3): build and run the Lemma A.1 attack's E2
// execution on the triangle+pendant graph.
func BenchmarkNecessityDegree(b *testing.B) {
	g := graph.MustFromEdges(4, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 0, V: 3},
	})
	rounds := core.Algo1Rounds(g.N(), 1)
	factory := func(u graph.NodeID, in sim.Value) sim.Node { return core.NewAlgo1Node(g, 1, u, in) }
	for i := 0; i < b.N; i++ {
		atk, err := adversary.DegreeAttack(g, 1, 3, rounds, factory)
		if err != nil {
			b.Fatal(err)
		}
		res, err := eval.RunAttackExecution(g, 1, 0, eval.Algo1, atk.Executions[1], rounds)
		if err != nil {
			b.Fatal(err)
		}
		if res.Agreement {
			b.Fatal("attack must violate agreement")
		}
	}
}

// BenchmarkNecessityCut (E4): the Lemma A.2 attack's E2 execution on a
// 1-cut graph.
func BenchmarkNecessityCut(b *testing.B) {
	g := graph.MustFromEdges(5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 0, V: 2},
	})
	rounds := core.Algo1Rounds(g.N(), 1)
	factory := func(u graph.NodeID, in sim.Value) sim.Node { return core.NewAlgo1Node(g, 1, u, in) }
	for i := 0; i < b.N; i++ {
		atk, err := adversary.CutAttack(g, 1, graph.NewSet(0, 1), graph.NewSet(3, 4), graph.NewSet(2), rounds, factory)
		if err != nil {
			b.Fatal(err)
		}
		res, err := eval.RunAttackExecution(g, 1, 0, eval.Algo1, atk.Executions[1], rounds)
		if err != nil {
			b.Fatal(err)
		}
		if res.Agreement {
			b.Fatal("attack must violate agreement")
		}
	}
}

// BenchmarkSufficiencySweep (E5): Algorithm 1 across every single-fault
// placement on the 5-cycle, with one reusable session per placement.
func BenchmarkSufficiencySweep(b *testing.B) {
	g := gen.Figure1a()
	sessions := make([]*Session, g.N())
	for z := range sessions {
		sessions[z] = mustSession(b, g,
			WithFaults(1),
			WithInputs(benchInputs(g.N())),
			WithByzantine(map[NodeID]Node{NodeID(z): NewSilentFault(NodeID(z))}),
		)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sessions {
			mustRunOK(b, s)
		}
	}
}

// BenchmarkEfficientRounds (E6): Algorithm 2 (O(n) rounds) vs Algorithm 1
// on growing cycles.
func BenchmarkEfficientRounds(b *testing.B) {
	for _, n := range []int{5, 7, 9} {
		g, err := gen.Cycle(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("algo1/n=%d", n), func(b *testing.B) {
			s := mustSession(b, g, WithFaults(1), WithInputs(benchInputs(n)))
			for i := 0; i < b.N; i++ {
				mustRunOK(b, s)
			}
		})
		b.Run(fmt.Sprintf("algo2/n=%d", n), func(b *testing.B) {
			s := mustSession(b, g, WithFaults(1), WithAlgorithm(Algorithm2), WithInputs(benchInputs(n)))
			for i := 0; i < b.N; i++ {
				mustRunOK(b, s)
			}
		})
	}
}

// BenchmarkFaultIdentification (E7): Algorithm 2 with a deterministic
// tamperer that must be identified (fresh stateful tamperer per run).
func BenchmarkFaultIdentification(b *testing.B) {
	g := gen.Figure1a()
	for i := 0; i < b.N; i++ {
		tamper := adversary.NewTamper(g, 2, core.PhaseRounds(g.N()), 7)
		tamper.FlipProb = 1
		tamper.DropProb = 0
		mustRunOK(b, mustSession(b, g,
			WithFaults(1),
			WithAlgorithm(Algorithm2),
			WithInputs(benchInputs(g.N())),
			WithByzantine(map[NodeID]Node{2: tamper}),
		))
	}
}

// BenchmarkHybridTradeoff (E8): Algorithm 3 on K5 (f=1, t=1) against an
// equivocating fault.
func BenchmarkHybridTradeoff(b *testing.B) {
	g, err := gen.Complete(5)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		mustRunOK(b, mustSession(b, g,
			WithFaults(1),
			WithEquivocating(1),
			WithAlgorithm(Algorithm3),
			WithModel(Hybrid),
			WithEquivocators(NewSet(4)),
			WithInputs(benchInputs(g.N())),
			WithByzantine(map[NodeID]Node{
				4: NewEquivocatorFault(g, 4, PhaseRounds(g)),
			}),
		))
	}
}

// BenchmarkModelComparison (E9): the K3 crossover — local broadcast
// consensus with an equivocator on a graph below the point-to-point bound.
func BenchmarkModelComparison(b *testing.B) {
	g, err := gen.Complete(3)
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[NodeID]Value{0: One, 1: One, 2: One}
	for i := 0; i < b.N; i++ {
		mustRunOK(b, mustSession(b, g,
			WithFaults(1),
			WithInputs(inputs),
			WithByzantine(map[NodeID]Node{
				0: NewEquivocatorFault(g, 0, PhaseRounds(g)),
			}),
		))
	}
}

// BenchmarkFloodingCost (E10): one complete path-annotated flooding phase
// per family.
func BenchmarkFloodingCost(b *testing.B) {
	type item struct {
		label string
		g     *graph.Graph
	}
	var items []item
	for _, n := range []int{5, 9} {
		g, err := gen.Cycle(n)
		if err != nil {
			b.Fatal(err)
		}
		items = append(items, item{fmt.Sprintf("cycle%d", n), g})
	}
	items = append(items, item{"circulant8", gen.Figure1b()})
	for _, it := range items {
		b.Run(it.label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nodes := make([]sim.Node, it.g.N())
				flooders := make([]*flood.Flooder, it.g.N())
				for j := range nodes {
					u := graph.NodeID(j)
					flooders[j] = flood.New(it.g, u)
					nodes[j] = &benchFloodNode{f: flooders[j], me: u}
				}
				eng, err := sim.NewEngine(sim.Config{Topology: sim.GraphTopology{G: it.g}}, nodes)
				if err != nil {
					b.Fatal(err)
				}
				eng.Run(flood.Rounds(it.g.N()))
			}
		})
	}
}

type benchFloodNode struct {
	f  *flood.Flooder
	me graph.NodeID
}

func (n *benchFloodNode) ID() graph.NodeID { return n.me }

func (n *benchFloodNode) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	switch round {
	case 0:
		return n.f.Start(flood.ValueBody{Value: sim.Value(int(n.me) % 2)})
	case 1:
		out := n.f.Deliver(inbox)
		return append(out, n.f.SynthesizeMissing(func(graph.NodeID) flood.Body {
			return flood.ValueBody{Value: sim.DefaultValue}
		})...)
	default:
		return n.f.Deliver(inbox)
	}
}

// BenchmarkP2PBaseline (E11): the EIG+Dolev baseline on the wheel graph.
func BenchmarkP2PBaseline(b *testing.B) {
	g, err := gen.Wheel(7)
	if err != nil {
		b.Fatal(err)
	}
	s := mustSession(b, g,
		WithFaults(1),
		WithAlgorithm(Algorithm2),
		WithInputs(benchInputs(g.N())),
	)
	for i := 0; i < b.N; i++ {
		mustRunOK(b, s)
	}
}

// BenchmarkParallelSweep: the E5-style strategy sweep through the parallel
// sweep subsystem at GOMAXPROCS workers.
func BenchmarkParallelSweep(b *testing.B) {
	grid := eval.Grid{
		Graphs:     []eval.GraphCase{{Label: "figure1a", G: gen.Figure1a()}},
		Faults:     []int{1},
		Strategies: []string{"none", "silent", "tamper", "forge"},
		Placements: 2,
		Seed:       7,
	}
	for i := 0; i < b.N; i++ {
		res, err := eval.RunSweep(context.Background(), grid, 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.OK != res.Stats.Cells {
			b.Fatalf("sweep violations: %+v", res.Stats)
		}
	}
}

// Substrate micro-benchmarks.

func BenchmarkVertexConnectivity(b *testing.B) {
	g, err := gen.Harary(4, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.VertexConnectivity() != 4 {
			b.Fatal("unexpected connectivity")
		}
	}
}

func BenchmarkDisjointPaths(b *testing.B) {
	g, err := gen.Complete(10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.DisjointPaths(0, 9, 9, 0)) != 9 {
			b.Fatal("path extraction failed")
		}
	}
}

func BenchmarkPhaseEnumeration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(core.Algo1Phases(10, 3)) != 176 {
			b.Fatal("phase count wrong")
		}
	}
}
