package core

import (
	"testing"

	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// equivocatingFault initiates value 0 toward half of its neighbors and 1
// toward the rest at every phase start and stays quiet otherwise. Under the
// hybrid transport (registered as an equivocator) the split is delivered
// as-is — the strongest single-node attack Algorithm 3 must absorb.
type equivocatingFault struct {
	g        *graph.Graph
	me       graph.NodeID
	phaseLen int
}

func (n *equivocatingFault) ID() graph.NodeID { return n.me }

func (n *equivocatingFault) Step(round int, _ []sim.Delivery) []sim.Outgoing {
	if n.phaseLen == 0 || round%n.phaseLen != 0 {
		return nil
	}
	nbrs := n.g.Neighbors(n.me)
	out := make([]sim.Outgoing, 0, len(nbrs))
	for i, nb := range nbrs {
		v := sim.Zero
		if i >= len(nbrs)/2 {
			v = sim.One
		}
		out = append(out, sim.Outgoing{To: nb, Payload: flood.Msg{Body: flood.ValueBody{Value: v}}})
	}
	return out
}

func runHybrid(t *testing.T, g *graph.Graph, f, tt int, inputs []sim.Value, byz map[graph.NodeID]sim.Node, equiv graph.Set) map[graph.NodeID]sim.Value {
	t.Helper()
	nodes := make([]sim.Node, g.N())
	for i := range nodes {
		u := graph.NodeID(i)
		if b, ok := byz[u]; ok {
			nodes[i] = b
			continue
		}
		nodes[i] = NewHybridNode(g, f, tt, u, inputs[i])
	}
	eng, err := sim.NewEngine(sim.Config{
		Topology:     sim.GraphTopology{G: g},
		Model:        sim.Hybrid,
		Equivocators: equiv,
	}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(HybridRounds(g.N(), f, tt))
	dec := make(map[graph.NodeID]sim.Value)
	for u, v := range eng.Decisions() {
		if _, isByz := byz[u]; !isByz {
			dec[u] = v
		}
	}
	return dec
}

func TestAlgo3AllHonestK5(t *testing.T) {
	g, err := gen.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []sim.Value{0, 1, 1, 0, 1}
	dec := runHybrid(t, g, 1, 1, inputs, nil, 0)
	assertAgreementValidity(t, dec, map[sim.Value]bool{0: true, 1: true}, 5)
}

func TestAlgo3ToleratesEquivocator(t *testing.T) {
	// K5 satisfies Theorem 6.1 for f=1, t=1: connectivity 4 >= 3 and
	// every single node has 4 >= 2f+1 = 3 neighbors.
	g, err := gen.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	phaseLen := PhaseRounds(g.N())
	for z := 0; z < g.N(); z++ {
		faulty := graph.NodeID(z)
		byz := map[graph.NodeID]sim.Node{
			faulty: &equivocatingFault{g: g, me: faulty, phaseLen: phaseLen},
		}
		inputs := []sim.Value{1, 0, 1, 1, 0}
		honestInputs := map[sim.Value]bool{}
		for i, v := range inputs {
			if graph.NodeID(i) != faulty {
				honestInputs[v] = true
			}
		}
		dec := runHybrid(t, g, 1, 1, inputs, byz, graph.NewSet(faulty))
		assertAgreementValidity(t, dec, honestInputs, 4)
	}
}

func TestAlgo3ToleratesSilentNonEquivocating(t *testing.T) {
	g, err := gen.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	faulty := graph.NodeID(2)
	byz := map[graph.NodeID]sim.Node{faulty: &silent{me: faulty}}
	inputs := []sim.Value{0, 0, 1, 0, 0}
	dec := runHybrid(t, g, 1, 1, inputs, byz, 0)
	assertAgreementValidity(t, dec, map[sim.Value]bool{0: true}, 4)
}

func TestAlgo3OnWheelMixedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Wheel W6: connectivity 3, min degree 3 — satisfies f=1, t=1.
	g, err := gen.Wheel(6)
	if err != nil {
		t.Fatal(err)
	}
	phaseLen := PhaseRounds(g.N())
	faulty := graph.NodeID(5) // the hub
	byz := map[graph.NodeID]sim.Node{
		faulty: &equivocatingFault{g: g, me: faulty, phaseLen: phaseLen},
	}
	inputs := []sim.Value{1, 0, 1, 0, 1, 0}
	honestInputs := map[sim.Value]bool{0: true, 1: true}
	dec := runHybrid(t, g, 1, 1, inputs, byz, graph.NewSet(faulty))
	assertAgreementValidity(t, dec, honestInputs, 5)
}
