// Command core is the per-layer probe of internal/core: it assembles the
// workload's primary shape into an engine with core's public constructors,
// wraps every node in a timing sim.Node, checks that the assembled run
// reproduces the Session's decisions and round count, and reports what the
// honest protocol steps cost — scalar, vector (64 lanes) and Algorithm 2.
package main

import (
	"context"
	"fmt"
	"sort"

	"lbcast/benchmark/probes/kit"
	"lbcast/benchmark/workload"
	"lbcast/internal/core"
	"lbcast/internal/eval"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

func main() { kit.Run("core", false, measure) }

// lanes is the width of the vector node measured: a full daemon batch.
const lanes = 64

// assembled runs the shape once on wrapped nodes and returns the timers and
// the finished engine.
func assembled(topo *graph.Analysis, sh workload.Shape) ([]*kit.TimedNode, *kit.World, *sim.Engine, error) {
	w, err := kit.Assemble(topo, sh, true)
	if err != nil {
		return nil, nil, nil, err
	}
	wrapped, timed := kit.WrapAll(w.Nodes)
	eng, _, err := kit.Engine(topo.Graph(), wrapped, true, w.Budget, w.Decided)
	return timed, w, eng, err
}

// honestStep sums the Step time of the honest nodes, in nanoseconds.
func honestStep(timed []*kit.TimedNode, honest graph.Set) float64 {
	var sum float64
	for v, t := range timed {
		if honest.Contains(graph.NodeID(v)) {
			sum += float64(t.Total.Nanoseconds())
		}
	}
	return sum
}

func measure(p *kit.Probe) error {
	g, sh := p.G, p.Shape
	topo := g.SharedAnalysis()

	// The self-check: the assembled engine must be the execution users get.
	spec, err := kit.Spec(g, sh)
	if err != nil {
		return err
	}
	session, err := eval.NewSession(spec)
	if err != nil {
		return err
	}
	want, err := session.Run(context.Background())
	if err != nil {
		return err
	}
	if !want.OK() {
		return fmt.Errorf("the Session's verdict on %s is not OK", sh.Label)
	}
	_, _, eng, err := assembled(topo, sh)
	if err != nil {
		return err
	}
	if err := kit.SameDecisions(eng, want.Decisions, want.Rounds); err != nil {
		return err
	}

	var failed error
	step := func(sh workload.Shape) float64 {
		return kit.Repeat(func() float64 {
			timed, w, _, err := assembled(topo, sh)
			if err != nil {
				failed = err
				return 0
			}
			return honestStep(timed, w.Honest)
		})
	}
	p.Report("honest_step_us", step(sh)/1e3)
	phaseLen := core.PhaseRounds(g.N())
	p.Report("rounds_per_decision", float64(want.Rounds))
	p.Report("phases_per_decision", float64(want.Rounds)/float64(phaseLen))

	// Phase ends on the benign Algorithm 1 run of the shape: the last round
	// of each completed phase (steps (b) and (c)) against the median round
	// inside it, summed over the honest nodes, averaged over phases.
	benign := kit.Benign(sh)
	p.Report("phase_end_us", kit.Repeat(func() float64 {
		timed, w, eng, err := assembled(topo, benign)
		if err != nil {
			failed = err
			return 0
		}
		phases := eng.Metrics().Rounds / phaseLen
		if phases == 0 {
			failed = fmt.Errorf("the benign run ended inside its first phase (%d rounds)", eng.Metrics().Rounds)
			return 0
		}
		var sum float64
		for v, t := range timed {
			if !w.Honest.Contains(graph.NodeID(v)) {
				continue
			}
			for ph := 0; ph < phases; ph++ {
				rounds := t.ByRound[ph*phaseLen : (ph+1)*phaseLen]
				mid := make([]float64, 0, phaseLen)
				for _, d := range rounds[1 : phaseLen-1] {
					mid = append(mid, float64(d.Nanoseconds()))
				}
				sort.Float64s(mid)
				sum += float64(rounds[phaseLen-1].Nanoseconds()) - mid[len(mid)/2]
			}
		}
		return sum / float64(phases)
	})/1e3)

	// The vector node: 64 benign lanes per vertex on the replayed plan, as
	// a full daemon batch runs. Lane l's inputs are the shape's, rotated.
	n := g.N()
	p.Report("vector_step_us_per_lane", kit.Repeat(func() float64 {
		rs := core.NewReplayShared(flood.PlanFor(topo))
		rs.SetPhantom(true)
		nodes := make([]sim.Node, n)
		vecs := make([]*core.VectorPhaseNode, n)
		for v := 0; v < n; v++ {
			in := make([]sim.Value, lanes)
			for l := range in {
				in[l] = sh.Inputs[(v+l)%n]
			}
			vecs[v] = core.NewVectorAlgo1Node(topo, sh.F, graph.NodeID(v), in, nil)
			vecs[v].EnableEarlyDecision()
			vecs[v].UseReplay(rs)
			nodes[v] = vecs[v]
		}
		wrapped, timed := kit.WrapAll(nodes)
		done := func(*sim.Engine) bool {
			for _, vn := range vecs {
				for l := 0; l < lanes; l++ {
					if _, ok := vn.LaneDecision(l); !ok {
						return false
					}
				}
			}
			return true
		}
		eng, _, err := kit.Engine(g, wrapped, true, core.Algo1Rounds(n, sh.F), done)
		if err != nil {
			failed = err
			return 0
		}
		if !done(eng) {
			failed = fmt.Errorf("vector lanes undecided after %d rounds", eng.Metrics().Rounds)
		}
		var sum float64
		for _, t := range timed {
			sum += float64(t.Total.Nanoseconds())
		}
		return sum / lanes
	})/1e3)

	// Algorithm 2 on the same graph and inputs, with the shape's faults
	// when the workload itself runs Algorithm 2.
	a2 := sh
	if sh.Algorithm != 2 {
		a2 = kit.Benign(sh)
	}
	a2.Algorithm = 2
	p.Report("algo2_step_us", step(a2)/1e3)
	return failed
}
