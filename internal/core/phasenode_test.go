package core

import (
	"testing"

	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

func TestAlgo1PhasesDeterministicAndComplete(t *testing.T) {
	p1 := Algo1Phases(5, 1)
	p2 := Algo1Phases(5, 1)
	if len(p1) != 6 { // empty set + 5 singletons
		t.Fatalf("phases = %d, want 6", len(p1))
	}
	for i := range p1 {
		if !p1[i].F.Equal(p2[i].F) {
			t.Fatal("phase order not deterministic")
		}
		if p1[i].T.Len() != 0 {
			t.Fatal("Algorithm 1 phases must have empty T")
		}
	}
	if p1[0].F.Len() != 0 {
		t.Fatal("first phase must be the empty fault set")
	}
}

func TestHybridPhasesCount(t *testing.T) {
	// n=4, f=2, t=1: T=∅ gives 1+4+6=11 F-sets; each of 4 singleton T
	// gives F ⊆ 3 nodes with |F|<=1: 4 sets → 16. Total 27.
	got := HybridPhases(4, 2, 1)
	if len(got) != 27 {
		t.Fatalf("hybrid phases = %d, want 27", len(got))
	}
}

func TestRoundBudgets(t *testing.T) {
	if PhaseRounds(5) != 6 {
		t.Fatalf("phase rounds = %d", PhaseRounds(5))
	}
	if Algo1Rounds(5, 1) != 6*6 {
		t.Fatalf("algo1 rounds = %d", Algo1Rounds(5, 1))
	}
	if EfficientRounds(5) != 18 {
		t.Fatalf("efficient rounds = %d", EfficientRounds(5))
	}
	if HybridRounds(4, 2, 1) != 27*5 {
		t.Fatalf("hybrid rounds = %d", HybridRounds(4, 2, 1))
	}
}

// TestRoundBudgetsCountPhases pins the counted round budgets to the
// enumerated phase schedules they replace.
func TestRoundBudgetsCountPhases(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for f := 0; f <= 4; f++ {
			if got, want := Algo1Rounds(n, f), len(Algo1Phases(n, f))*PhaseRounds(n); got != want {
				t.Fatalf("Algo1Rounds(%d, %d) = %d, enumeration gives %d", n, f, got, want)
			}
			for tt := 0; tt <= f; tt++ {
				if got, want := HybridRounds(n, f, tt), len(HybridPhases(n, f, tt))*PhaseRounds(n); got != want {
					t.Fatalf("HybridRounds(%d, %d, %d) = %d, enumeration gives %d", n, f, tt, got, want)
				}
			}
		}
	}
}

// runHonest drives a full honest execution of the given nodes on g.
func runHonest(t *testing.T, g *graph.Graph, nodes []sim.Node, rounds int) map[graph.NodeID]sim.Value {
	t.Helper()
	eng, err := sim.NewEngine(sim.Config{Topology: sim.GraphTopology{G: g}}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(rounds)
	return eng.Decisions()
}

func TestAlgo1AllHonestUnanimous(t *testing.T) {
	g := gen.Figure1a()
	for _, input := range []sim.Value{sim.Zero, sim.One} {
		nodes := make([]sim.Node, g.N())
		for i := range nodes {
			nodes[i] = NewAlgo1Node(g, 1, graph.NodeID(i), input)
		}
		dec := runHonest(t, g, nodes, Algo1Rounds(g.N(), 1))
		if len(dec) != g.N() {
			t.Fatalf("only %d nodes decided", len(dec))
		}
		for u, v := range dec {
			if v != input {
				t.Fatalf("unanimous input %s: node %d decided %s", input, u, v)
			}
		}
	}
}

func TestAlgo1MixedInputsAgreeAndValid(t *testing.T) {
	g := gen.Figure1a()
	inputs := []sim.Value{0, 1, 1, 0, 1}
	nodes := make([]sim.Node, g.N())
	for i := range nodes {
		nodes[i] = NewAlgo1Node(g, 1, graph.NodeID(i), inputs[i])
	}
	dec := runHonest(t, g, nodes, Algo1Rounds(g.N(), 1))
	var ref sim.Value
	first := true
	for _, v := range dec {
		if first {
			ref, first = v, false
		}
		if v != ref {
			t.Fatalf("disagreement: %v", dec)
		}
	}
}

func TestAlgo1GammaInvariantEachPhase(t *testing.T) {
	// Lemma 5.2: after every phase, each honest node's γ equals some
	// honest node's γ at the phase start. With all nodes honest and
	// inputs all 0, γ must stay 0 through every phase.
	g := gen.Figure1a()
	pnodes := make([]*PhaseNode, g.N())
	nodes := make([]sim.Node, g.N())
	for i := range nodes {
		pnodes[i] = NewAlgo1Node(g, 1, graph.NodeID(i), sim.Zero)
		nodes[i] = pnodes[i]
	}
	eng, err := sim.NewEngine(sim.Config{Topology: sim.GraphTopology{G: g}}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	pr := PhaseRounds(g.N())
	for phase := 0; phase < len(Algo1Phases(g.N(), 1)); phase++ {
		eng.Run(pr)
		for _, p := range pnodes {
			if p.Gamma() != sim.Zero {
				t.Fatalf("phase %d: node %d γ = %s", phase, p.ID(), p.Gamma())
			}
		}
	}
}

func TestAlgo1Figure1bTwoFaultsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("f=2 run is slow")
	}
	g := gen.Figure1b()
	inputs := []sim.Value{0, 1, 0, 1, 0, 1, 0, 1}
	nodes := make([]sim.Node, g.N())
	for i := range nodes {
		nodes[i] = NewAlgo1Node(g, 2, graph.NodeID(i), inputs[i])
	}
	dec := runHonest(t, g, nodes, Algo1Rounds(g.N(), 2))
	if len(dec) != g.N() {
		t.Fatalf("only %d nodes decided", len(dec))
	}
	var ref sim.Value
	first := true
	for _, v := range dec {
		if first {
			ref, first = v, false
		}
		if v != ref {
			t.Fatalf("disagreement: %v", dec)
		}
	}
}

func TestPhaseNodeDecisionLifecycle(t *testing.T) {
	g := gen.Figure1a()
	nd := NewAlgo1Node(g, 1, 0, sim.One)
	if _, ok := nd.Decision(); ok {
		t.Fatal("decided before running")
	}
	nodes := make([]sim.Node, g.N())
	nodes[0] = nd
	for i := 1; i < g.N(); i++ {
		nodes[i] = NewAlgo1Node(g, 1, graph.NodeID(i), sim.One)
	}
	runHonest(t, g, nodes, Algo1Rounds(g.N(), 1))
	if v, ok := nd.Decision(); !ok || v != sim.One {
		t.Fatalf("decision = %v %v", v, ok)
	}
	// Steps after decision are inert.
	if out := nd.Step(9999, nil); out != nil {
		t.Fatal("post-decision step transmitted")
	}
}
