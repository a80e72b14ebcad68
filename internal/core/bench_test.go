package core

import (
	"fmt"
	"slices"
	"testing"

	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// benchLanes are the lane counts the phase-node benchmarks run: one lane
// takes laneShare's filtered-query strategy, 64 (a full daemon batch) the
// grouped one.
var benchLanes = []int{1, 64}

// benchNodes builds Figure 1(b) phase nodes for f = 2 with early decision
// on, one per vertex, each over lanes inputs; vertex v's lane l input is
// (v+l) mod 2.
func benchNodes(topo *graph.Analysis, lanes int) []*VectorPhaseNode {
	const f = 2
	g := topo.Graph()
	nds := make([]*VectorPhaseNode, g.N())
	for v := range nds {
		inputs := make([]sim.Value, lanes)
		for l := range inputs {
			inputs[l] = sim.Value((v + l) % 2)
		}
		nds[v] = NewVectorAlgo1Node(topo, f, graph.NodeID(v), inputs, nil)
		nds[v].EnableEarlyDecision()
	}
	return nds
}

// BenchmarkPhaseNodeEndPhase isolates the steps (b)+(c) evaluation — the
// per-phase query load over the receipt store (chosen-path reads and the
// disjoint-receipt predicate) — on a complete Figure 1(b) flooding phase,
// at each lane count.
func BenchmarkPhaseNodeEndPhase(b *testing.B) {
	g := gen.Figure1b()
	n := g.N()
	for _, lanes := range benchLanes {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			nds := benchNodes(graph.NewAnalysis(g), lanes)
			nodes := make([]sim.Node, n)
			for v, nd := range nds {
				nodes[v] = nd
			}
			eng, err := sim.NewEngine(sim.Config{Topology: sim.GraphTopology{G: g}}, nodes)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			// Run one phase minus its final round, so the flooder holds a
			// full session's receipts but endPhase has not fired yet.
			eng.Run(PhaseRounds(n) - 1)
			nd := nds[0]
			inputs := slices.Clone(nd.gammas)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				// Reset the per-phase outputs so every iteration evaluates
				// the same state.
				copy(nd.gammas, inputs)
				clear(nd.earlyDecided)
				nd.endPhase()
			}
		})
	}
}

// BenchmarkPhaseNodeRecycledRun runs a whole benign Figure 1(b) execution
// for f = 2 per iteration, at each lane count: the benign plan replayed
// wholesale with phantom transmissions and early decision on, over nodes
// and an engine recycled by Reset, as a pooled run does. After one warm-up
// run, the one-lane run allocates nothing.
func BenchmarkPhaseNodeRecycledRun(b *testing.B) {
	g := gen.Figure1b()
	n := g.N()
	for _, lanes := range benchLanes {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			topo := graph.NewAnalysis(g)
			rs := NewReplayShared(flood.PlanFor(topo))
			rs.SetPhantom(true)
			nds := benchNodes(topo, lanes)
			nodes := make([]sim.Node, n)
			inputs := make([][]sim.Value, n)
			for v, nd := range nds {
				nd.UseReplay(rs)
				nodes[v] = nd
				inputs[v] = slices.Clone(nd.gammas)
			}
			eng, err := sim.NewEngine(sim.Config{Topology: sim.GraphTopology{G: g}}, nodes)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			done := func() bool {
				for _, nd := range nds {
					for l := range lanes {
						if _, ok := nd.LaneDecision(l); !ok {
							return false
						}
					}
				}
				return true
			}
			budget := Algo1Rounds(n, 2)
			run := func() {
				for v, nd := range nds {
					nd.Reset(inputs[v])
				}
				eng.Reset(nil)
				eng.RunUntil(budget, done)
				if !done() {
					b.Fatalf("undecided after %d rounds", eng.Metrics().Rounds)
				}
			}
			// The first run grows every buffer the later ones recycle.
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				run()
			}
		})
	}
}
