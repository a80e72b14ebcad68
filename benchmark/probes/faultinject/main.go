// Command faultinject is the per-layer probe of internal/faultinject:
// generating a churn schedule as a Monte Carlo trial does, applying a whole
// schedule to the two mask sinks a churn run keeps (the engine's masked
// topology and the analysis' masked view), and the injection counters over
// the workload's own operations.
package main

import (
	"fmt"
	"math/rand"

	"lbcast/benchmark/probes/kit"
	"lbcast/internal/core"
	"lbcast/internal/eval"
	"lbcast/internal/faultinject"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

func main() { kit.Run("faultinject", true, measure) }

func measure(p *kit.Probe) error {
	g, sh := p.G, p.Shape
	phaseLen := core.PhaseRounds(g.N())
	// The mc_churn profile, with the arguments the sweep passes: max(1, f)
	// link flaps in the second phase, each healed start+span rounds later.
	flaps, start, span := max(1, sh.F), phaseLen, phaseLen
	rng := rand.New(rand.NewSource(p.In.Seed))
	var sched *faultinject.Schedule
	var invalid error
	p.Report("generate_us", kit.Time(func() {
		sched = faultinject.Churn(g, rng, flaps, start, span, start+span)
		sched.Normalize()
		if err := sched.Validate(g); err != nil {
			invalid = err
		}
	})/1e3)
	if invalid != nil {
		return invalid
	}
	if sched.Empty() {
		return fmt.Errorf("the generated churn schedule is empty")
	}

	topo := sim.NewMaskedTopology(g)
	view := graph.NewMaskedView(g.SharedAnalysis())
	applied := 0
	p.Report("apply_us", kit.Time(func() {
		topo.ResetMask()
		view.ResetMask()
		cur := sched.Cursor()
		applied = 0
		for r := 0; r <= 2*(start+span); r++ {
			applied += cur.Apply(g, r, topo, view)
		}
	})/1e3)
	if applied != sched.Len() {
		return fmt.Errorf("applied %d of the schedule's %d events", applied, sched.Len())
	}

	if _, err := p.Ops(); err != nil {
		return err
	}
	events, invalidations := eval.ReadChurnStats()
	decisions, err := p.Ops()
	if err != nil {
		return err
	}
	eventsAfter, invalidationsAfter := eval.ReadChurnStats()
	p.Report("events_per_trial", float64(eventsAfter-events)/float64(decisions))
	p.Report("invalidations_per_trial", float64(invalidationsAfter-invalidations)/float64(decisions))
	return nil
}
