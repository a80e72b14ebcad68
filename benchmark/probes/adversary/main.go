// Command adversary is the per-layer probe of internal/adversary: what one
// Byzantine node's steps cost over a faulty run, per strategy, in a world
// where every honest node floods dynamically (stated as such: under delta
// replay the honest side is cheaper, the adversary's steps are the same);
// what recycling an adversary costs; and how often the workload's own
// operations reuse one.
package main

import (
	"fmt"

	"lbcast/benchmark/probes/kit"
	"lbcast/benchmark/workload"
	"lbcast/internal/adversary"
	"lbcast/internal/core"
	"lbcast/internal/graph"
)

func main() { kit.Run("adversary", true, measure) }

func measure(p *kit.Probe) error {
	g, sh := p.G, kit.Benign(p.Shape)
	topo := g.SharedAnalysis()
	node := g.N() / 2
	if len(p.Shape.Faults) > 0 {
		node = p.Shape.Faults[0].Node
	}
	var failed error
	for _, strategy := range []string{"tamper", "equivocate", "forge"} {
		faulty := sh
		faulty.Faults = []workload.Fault{{Node: node, Strategy: strategy, Seed: 1}}
		p.Report(strategy+"_step_us", kit.Repeat(func() float64 {
			w, err := kit.Assemble(topo, faulty, false)
			if err != nil {
				failed = err
				return 0
			}
			wrapped, timed := kit.WrapAll(w.Nodes)
			eng, _, err := kit.Engine(g, wrapped, true, w.Budget, w.Decided)
			if err != nil {
				failed = err
				return 0
			}
			if !w.Decided(eng) {
				failed = fmt.Errorf("honest nodes undecided against %s after %d rounds", strategy, eng.Metrics().Rounds)
			}
			return float64(timed[node].Total.Nanoseconds())
		})/1e3)
	}

	phaseLen := core.PhaseRounds(g.N())
	p.Report("acquire_release_ns", kit.Time(func() {
		adversary.Release(adversary.AcquireTamper(g, graph.NodeID(node), phaseLen, 7))
	}))

	if _, err := p.Ops(); err != nil {
		return err
	}
	before := adversary.ReadRecycleStats()
	decisions, err := p.Ops()
	if err != nil {
		return err
	}
	p.Report("reuses_per_ktrial", float64(adversary.ReadRecycleStats()-before)*1000/float64(decisions))
	return failed
}
