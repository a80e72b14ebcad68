// Command graph is the per-layer probe of internal/graph (and
// internal/check): topology analysis, the feasibility check, the step-(b)
// shortest-path queries, Algorithm 2's disjoint-path layouts, path
// interning, and masked-view maintenance, each timed cold on the workload's
// graphs (at most maxGraphs distinct ones) and averaged over them.
package main

import (
	"fmt"

	"lbcast/benchmark/probes/kit"
	"lbcast/internal/check"
	"lbcast/internal/core"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
)

func main() { kit.Run("graph", false, measure) }

// maxGraphs bounds how many of the workload's distinct graphs are measured:
// cold_start has eight and the probe a fraction of a second.
const maxGraphs = 2

func measure(p *kit.Probe) error {
	var analysis, chk, shortest, disjoint, extend, masked float64
	seen := map[string]bool{}
	graphs := 0
	for _, sh := range p.Shapes {
		key := fmt.Sprint(sh.N, sh.Edges)
		if seen[key] || graphs == maxGraphs {
			continue
		}
		seen[key] = true
		g, err := sh.Graph()
		if err != nil {
			return err
		}
		graphs++
		n := g.N()

		analysis += kit.Time(func() {
			a := graph.NewAnalysis(g)
			_ = a.Connectivity()
			_ = a.MinDegree()
		})
		var ok bool
		chk += kit.Time(func() { ok = check.LocalBroadcast(g, sh.F).OK })
		if !ok && sh.Algorithm == 1 {
			return fmt.Errorf("%s: the paper's conditions do not hold for f=%d", sh.Label, sh.F)
		}

		// Every step-(b) query of Algorithm 1 on a cold analysis: for each
		// candidate fault set F, each ordered pair outside F.
		phases := core.Algo1Phases(n, sh.F)
		shortest += kit.Time(func() {
			a := graph.NewAnalysis(g)
			for _, ph := range phases {
				for s := 0; s < n; s++ {
					for t := 0; t < n; t++ {
						if s != t && !ph.F.Contains(graph.NodeID(s)) && !ph.F.Contains(graph.NodeID(t)) {
							_ = a.ShortestPathExcluding(graph.NodeID(s), graph.NodeID(t), ph.F)
						}
					}
				}
			}
		})

		// Algorithm 2's fault-identification layouts: 2f disjoint paths
		// for every pair, cold.
		disjoint += kit.Time(func() {
			a := graph.NewAnalysis(g)
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u != v {
						_ = a.DisjointPaths(graph.NodeID(u), graph.NodeID(v), 2*sh.F)
					}
				}
			}
		})

		// Interning the plan's whole path set into a fresh arena, one
		// Extend per hop, as the dynamic flooder does per delivery.
		plan := flood.CompilePlan(g)
		src := plan.Arena()
		paths := make([]graph.Path, 0, src.Len())
		hops := 0
		for id := 0; id < src.Len(); id++ {
			pth := src.Path(graph.PathID(id))
			if len(pth) > 0 {
				paths = append(paths, pth)
				hops += len(pth)
			}
		}
		if hops == 0 {
			return fmt.Errorf("%s: the compiled plan holds no paths", sh.Label)
		}
		extend += kit.Time(func() {
			ar := graph.NewPathArena(g)
			for _, pth := range paths {
				id := ar.Root(pth[0])
				for _, u := range pth[1:] {
					id = ar.Extend(id, u)
				}
			}
		}) / float64(hops)

		// One link flap on a masked view, each followed by the re-queries
		// the churn run makes at a round boundary.
		a := graph.NewAnalysis(g)
		view := graph.NewMaskedView(a)
		edges := g.Edges()
		masked += kit.Time(func() {
			for _, e := range edges {
				view.SetEdgeDown(e.U, e.V, true)
				_ = view.Connectivity()
				_ = view.MinDegree()
				view.SetEdgeDown(e.U, e.V, false)
			}
		}) / float64(2*len(edges))
	}
	per := 1 / float64(graphs)
	p.Report("analysis_us", analysis*per/1e3)
	p.Report("check_us", chk*per/1e3)
	p.Report("shortest_excl_us", shortest*per/1e3)
	p.Report("disjoint_paths_us", disjoint*per/1e3)
	p.Report("arena_extend_ns", extend*per)
	p.Report("maskedview_event_us", masked*per/1e3)
	return nil
}
