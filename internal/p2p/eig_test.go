package p2p

import (
	"testing"

	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// runEIG executes the baseline on g with the given inputs and Byzantine
// overrides under the point-to-point transport.
func runEIG(t *testing.T, g *graph.Graph, f int, inputs []sim.Value, byz map[graph.NodeID]sim.Node) map[graph.NodeID]sim.Value {
	t.Helper()
	nodes := make([]sim.Node, g.N())
	for i := range nodes {
		u := graph.NodeID(i)
		if b, ok := byz[u]; ok {
			nodes[i] = b
			continue
		}
		nodes[i] = New(g, f, u, inputs[i])
	}
	eng, err := sim.NewEngine(sim.Config{
		Topology: sim.GraphTopology{G: g},
		Model:    sim.PointToPoint,
	}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(Rounds(g.N(), f))
	out := make(map[graph.NodeID]sim.Value)
	for u, v := range eng.Decisions() {
		if _, isByz := byz[u]; !isByz {
			out[u] = v
		}
	}
	return out
}

func assertConsensus(t *testing.T, decisions map[graph.NodeID]sim.Value, honestInputs map[sim.Value]bool, n int) {
	t.Helper()
	if len(decisions) != n {
		t.Fatalf("only %d of %d honest nodes decided", len(decisions), n)
	}
	var ref sim.Value
	first := true
	for u, v := range decisions {
		if first {
			ref, first = v, false
		}
		if v != ref {
			t.Fatalf("agreement violated: node %d decided %s, expected %s", u, v, ref)
		}
		if !honestInputs[v] {
			t.Fatalf("validity violated: node %d decided %s which no honest node input", u, v)
		}
	}
}

func TestEIGCompleteGraphNoFaults(t *testing.T) {
	g, err := gen.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []sim.Value{0, 1, 1, 0}
	dec := runEIG(t, g, 1, inputs, nil)
	assertConsensus(t, dec, map[sim.Value]bool{0: true, 1: true}, 4)
}

func TestEIGCompleteGraphEquivocator(t *testing.T) {
	g, err := gen.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	// The faulty node tells half its neighbors 0 and half 1 — the attack
	// that is impossible under local broadcast but trivial here.
	byz := map[graph.NodeID]sim.Node{3: &equivocator{g: g, me: 3}}
	inputs := []sim.Value{1, 1, 1, 0}
	dec := runEIG(t, g, 1, inputs, byz)
	assertConsensus(t, dec, map[sim.Value]bool{1: true}, 3)
}

func TestEIGIncompleteGraph(t *testing.T) {
	// n = 7, f = 1 needs 3-connectivity: wheel W7 is 3-connected.
	g, err := gen.Wheel(7)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.VertexConnectivity(); got < 3 {
		t.Fatalf("wheel connectivity = %d, want >= 3", got)
	}
	inputs := []sim.Value{0, 1, 0, 1, 0, 1, 0}
	byz := map[graph.NodeID]sim.Node{2: &equivocator{g: g, me: 2}}
	dec := runEIG(t, g, 1, inputs, byz)
	assertConsensus(t, dec, map[sim.Value]bool{0: true, 1: true}, 6)
}

// equivocator initiates conflicting EIG claims per neighbor and relays
// nothing — a classical split-brain sender.
type equivocator struct {
	g  *graph.Graph
	me graph.NodeID
}

func (e *equivocator) ID() graph.NodeID { return e.me }

func (e *equivocator) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	if round != 0 {
		return nil
	}
	var out []sim.Outgoing
	for i, nb := range e.g.Neighbors(e.me) {
		v := sim.Value(i % 2)
		out = append(out, sim.Outgoing{To: nb, Payload: floodMsg(EIGBody{Label: Label{}, Value: v})})
	}
	return out
}
