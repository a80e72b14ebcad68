// Command eval is the per-layer probe of internal/eval: what a Session adds
// around the engine it drives (pool get and put, input conversion,
// judging), what opening one costs, the batch driver per instance, a Monte
// Carlo trial, and the hit rates of the run pool and the trial pool over
// the workload's own operations.
package main

import (
	"context"
	"fmt"
	"time"

	"lbcast/benchmark/probes/kit"
	"lbcast/internal/eval"
	"lbcast/internal/sim"
)

func main() { kit.Run("eval", true, measure) }

// batchInstances is the batch measured: a full daemon group.
const batchInstances = 64

func measure(p *kit.Probe) error {
	g, sh := p.G, p.Shape
	topo := g.SharedAnalysis()
	ctx := context.Background()
	var failed error

	p.Report("session_new_us", kit.Time(func() {
		spec, err := kit.Spec(g, sh)
		if err == nil {
			_, err = eval.NewSession(spec)
		}
		if err != nil {
			failed = err
		}
	})/1e3)
	if failed != nil {
		return failed
	}

	// Session.Run against the bare assembled engine of the same shape: the
	// difference is the driver's own work. Adversaries carry state between
	// runs, so every sample gets a fresh session.
	session := kit.Repeat(func() float64 {
		spec, err := kit.Spec(g, sh)
		if err != nil {
			failed = err
			return 0
		}
		s, err := eval.NewSession(spec)
		if err != nil {
			failed = err
			return 0
		}
		t0 := time.Now()
		out, err := s.Run(ctx)
		d := time.Since(t0)
		if err != nil {
			failed = err
		} else if !out.OK() {
			failed = fmt.Errorf("the Session's verdict on %s is not OK", sh.Label)
		}
		return float64(d.Nanoseconds())
	})
	bare := kit.Repeat(func() float64 {
		w, err := kit.Assemble(topo, sh, true)
		if err != nil {
			failed = err
			return 0
		}
		_, span, err := kit.Engine(g, w.Nodes, true, w.Budget, w.Decided)
		if err != nil {
			failed = err
		}
		return float64(span.Nanoseconds())
	})
	p.Report("session_overhead_us", (session-bare)/1e3)

	// The batch driver: 64 benign instances of the shape, inputs rotated.
	benign := kit.Benign(sh)
	n := g.N()
	bs := eval.BatchSpec{G: g, F: benign.F, Algorithm: eval.Algo1}
	for i := 0; i < batchInstances; i++ {
		in := make([]sim.Value, n)
		for v := range in {
			in[v] = benign.Inputs[(v+i)%n]
		}
		bs.Instances = append(bs.Instances, eval.BatchInstance{InputSlab: in})
	}
	batch, err := eval.NewBatchSession(bs)
	if err != nil {
		return err
	}
	p.Report("batch_us_per_instance", kit.Time(func() {
		out, err := batch.Run(ctx)
		if err != nil {
			failed = err
		} else if !out.OK() {
			failed = fmt.Errorf("a batched instance's verdict is not OK")
		}
	})/1e3/batchInstances)

	// One Monte Carlo trial: the workload's own sweep where it has one,
	// else the default mostly-benign profile on the workload's graph.
	mc := eval.MonteCarloConfig{G: g, F: sh.F, Algorithm: eval.Algo1, Trials: 16, FaultProb: 0.0625, Workers: 1, Seed: p.In.Seed}
	if plan := p.In.MC; plan != nil {
		mc.Trials, mc.FaultProb, mc.Seed = plan.Trials, plan.FaultProb, plan.OpSeeds[0]
		if plan.Churn {
			mc.ChurnProfile = eval.ChurnProfile{Kind: "churn", Prob: 0.5, Start: n + 1}
		}
	}
	p.Report("mc_trial_us", kit.Repeat(func() float64 {
		t0 := time.Now()
		res, err := eval.MonteCarloContext(ctx, mc)
		d := time.Since(t0)
		if err != nil {
			failed = err
		} else if len(res.Violations) > 0 {
			failed = fmt.Errorf("%d Monte Carlo violations", len(res.Violations))
		}
		return float64(d.Nanoseconds()) / float64(mc.Trials)
	})/1e3)
	if failed != nil {
		return failed
	}

	// Pool hit rates over the workload's own operations, after warm-up. A
	// workload that never asks a pool (Algorithm 2 has no run pool, only
	// sweeps use the trial pool) attempted nothing and hit nothing.
	if _, err := p.Ops(); err != nil {
		return err
	}
	runHits, runMisses := eval.ReadPoolStats()
	trialHits, trialMisses := eval.ReadTrialPoolStats()
	if _, err := p.Ops(); err != nil {
		return err
	}
	rate := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	h, m := eval.ReadPoolStats()
	p.Report("run_pool_hit_rate", rate(h-runHits, m-runMisses))
	h, m = eval.ReadTrialPoolStats()
	p.Report("trial_pool_hit_rate", rate(h-trialHits, m-trialMisses))
	return nil
}
