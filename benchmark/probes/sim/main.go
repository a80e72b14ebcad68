// Command sim is the per-layer probe of internal/sim: what the round
// engine spends between the nodes' steps (routing and delivery), what the
// batch multiplexer adds on top of its inner nodes, and the message counts
// of one decision.
package main

import (
	"fmt"

	"lbcast/benchmark/probes/kit"
	"lbcast/internal/core"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

func main() { kit.Run("sim", false, measure) }

// batchWidth is the number of scalar instances multiplexed per vertex.
const batchWidth = 8

func measure(p *kit.Probe) error {
	g, sh := p.G, p.Shape
	topo := g.SharedAnalysis()
	n := g.N()
	var failed error

	// Routing: the engine's span minus the nodes' steps, on the shape as a
	// Session runs it. Sequential stepping, so that the two can be
	// subtracted; the parallel engine overlaps them.
	var metrics sim.Metrics
	p.Report("route_us", kit.Repeat(func() float64 {
		w, err := kit.Assemble(topo, sh, true)
		if err != nil {
			failed = err
			return 0
		}
		wrapped, timed := kit.WrapAll(w.Nodes)
		eng, span, err := kit.Engine(g, wrapped, false, w.Budget, w.Decided)
		if err != nil {
			failed = err
			return 0
		}
		if !w.Decided(eng) {
			failed = fmt.Errorf("the assembled run of %s did not terminate", sh.Label)
		}
		metrics = eng.Metrics()
		steps := 0.0
		for _, t := range timed {
			steps += float64(t.Total.Nanoseconds())
		}
		return float64(span.Nanoseconds()) - steps
	})/1e3)
	p.Report("transmissions_per_decision", float64(metrics.Transmissions))
	p.Report("deliveries_per_decision", float64(metrics.Deliveries))

	// The multiplexer: batchWidth replaying scalar instances per vertex
	// inside a BatchNode, both levels wrapped. What the outer steps take
	// beyond the inner ones is the mux (demultiplexing inboxes, merging
	// transmissions), reported per instance.
	benign := kit.Benign(sh)
	p.Report("batch_mux_us", kit.Repeat(func() float64 {
		inner := make([][]sim.Node, n)
		var innerTimed []*kit.TimedNode
		for i := 0; i < batchWidth; i++ {
			rs := core.NewReplayShared(flood.PlanFor(topo))
			for v := 0; v < n; v++ {
				pn := core.NewAlgo1NodeShared(topo, benign.F, graph.NodeID(v), benign.Inputs[(v+i)%n], nil)
				pn.EnableEarlyDecision()
				pn.UseReplay(rs)
				t := &kit.TimedNode{Inner: pn}
				inner[v] = append(inner[v], t)
				innerTimed = append(innerTimed, t)
			}
		}
		nodes := make([]sim.Node, n)
		for v := 0; v < n; v++ {
			bn, err := sim.NewBatchNode(graph.NodeID(v), inner[v])
			if err != nil {
				failed = err
				return 0
			}
			nodes[v] = bn
		}
		wrapped, outer := kit.WrapAll(nodes)
		done := func(*sim.Engine) bool {
			for _, t := range innerTimed {
				if _, ok := t.Decision(); !ok {
					return false
				}
			}
			return true
		}
		eng, _, err := kit.Engine(g, wrapped, true, core.Algo1Rounds(n, benign.F), done)
		if err != nil {
			failed = err
			return 0
		}
		if !done(eng) {
			failed = fmt.Errorf("batched instances undecided after %d rounds", eng.Metrics().Rounds)
		}
		var out, in float64
		for _, t := range outer {
			out += float64(t.Total.Nanoseconds())
		}
		for _, t := range innerTimed {
			in += float64(t.Total.Nanoseconds())
		}
		return (out - in) / batchWidth
	})/1e3)
	return failed
}
