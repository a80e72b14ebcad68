package eval

import (
	"context"
	"fmt"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/core"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// lbPhaseRounds mirrors core.PhaseRounds for adversary construction.
func lbPhaseRounds(n int) int { return core.PhaseRounds(n) }

// The replay-parity suite enforces that compiled-plan replay is an
// execution strategy, not a semantics change: for every qualifying
// execution, the replayed run's complete observable behavior — every
// transmission (payload key, receivers, round), every decision, every
// metric — is byte-identical to the dynamic run's. The dynamic side is
// forced with forceDynamic, so both sides run the same code release.

// traceString renders a run's full observable behavior canonically.
func traceString(rec *sim.Recorder, out Outcome) string {
	var sb []byte
	for _, tr := range rec.Transmissions() {
		sb = fmt.Appendf(sb, "r%d %d->%v %s\n", tr.Round, tr.From, tr.Receivers, tr.Payload.Key())
	}
	sb = fmt.Appendf(sb, "outcome %+v\n", out)
	return string(sb)
}

// runTraced executes one spec with a fresh recorder attached.
func runTraced(t *testing.T, spec Spec) string {
	t.Helper()
	rec := &sim.Recorder{}
	spec.Observer = rec
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return traceString(rec, out)
}

// checkSessionReplayParity runs the spec with replay enabled and disabled
// and requires identical traces.
func checkSessionReplayParity(t *testing.T, spec Spec) {
	t.Helper()
	spec.forceDynamic = false
	replayed := runTraced(t, spec)
	spec.forceDynamic = true
	dynamic := runTraced(t, spec)
	if replayed != dynamic {
		t.Fatalf("replayed and dynamic executions diverge:\nreplayed:\n%s\ndynamic:\n%s", replayed, dynamic)
	}
}

// TestSessionReplayParityRandomGraphs is the all-benign property over
// seeded random graphs: fault-free sessions replay and must be
// byte-identical to dynamic flooding, for both termination policies. The
// seq variants run the spec a second time in sequence: that replayed run
// draws its state from the run pool the first one returned to, so
// recycled replay is held to dynamic flooding as well.
func TestSessionReplayParityRandomGraphs(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		n := 5 + int(seed)%4
		g, err := gen.RandomWithMinConnectivity(n, 3, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		inputs := make(map[graph.NodeID]sim.Value, n)
		for i := 0; i < n; i++ {
			inputs[graph.NodeID(i)] = sim.Value((i + int(seed)) % 2)
		}
		for _, seq := range []bool{false, true} {
			for _, full := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed%d-n%d-seq%v-full%v", seed, n, seq, full), func(t *testing.T) {
					checkPhaseStructure(t)
					spec := Spec{G: g, F: 1, Algorithm: Algo1, Inputs: inputs, FullBudget: full}
					checkSessionReplayParity(t, spec)
					if seq {
						checkSessionReplayParity(t, spec)
					}
				})
			}
		}
	}
}

// TestMonteCarloReplayParityRareFaults replays a rare-fault Monte Carlo
// stream trial by trial: benign trials replay, faulty trials fall back,
// and every trial's trace must match its forced-dynamic twin. This is the
// production-profile case the plan layer exists for — most trials benign,
// occasional fault injections — exercised with the exact per-trial
// derivation MonteCarlo uses.
func TestMonteCarloReplayParityRareFaults(t *testing.T) {
	checkPhaseStructure(t)
	cfg := MonteCarloConfig{G: gen.Figure1b(), F: 2, Algorithm: Algo1, Trials: 24, FaultProb: 0.25, Seed: 17,
		Strategies: []string{"silent", "tamper", "equivocate", "forge"}}
	if _, err := MonteCarlo(cfg); err != nil {
		t.Fatal(err)
	}
	topo := graph.NewAnalysis(cfg.G)
	cfg.Faults = cfg.F
	benign, faulty := 0, 0
	for trial := 0; trial < cfg.Trials; trial++ {
		inputs, fnodes, _, byz := mcTrialSetup(cfg, trial)
		if len(fnodes) == 0 {
			benign++
		} else {
			faulty++
		}
		spec := Spec{G: cfg.G, F: cfg.F, Algorithm: cfg.Algorithm, Inputs: inputs, Byzantine: byz}
		replayed := runTracedShared(t, spec, topo)
		// Stateful adversaries must restart identically: rebuild them.
		_, _, _, byz2 := mcTrialSetup(cfg, trial)
		spec.Byzantine = byz2
		spec.forceDynamic = true
		dynamic := runTracedShared(t, spec, topo)
		if replayed != dynamic {
			t.Fatalf("trial %d (faulty=%v): replayed and dynamic traces diverge", trial, fnodes)
		}
	}
	if benign == 0 || faulty == 0 {
		t.Fatalf("stream not mixed: %d benign, %d faulty trials", benign, faulty)
	}
}

// runTracedShared is runTraced over a shared analysis (the Monte Carlo
// execution shape).
func runTracedShared(t *testing.T, spec Spec, topo *graph.Analysis) string {
	t.Helper()
	return traceString(runRecordedShared(t, spec, topo))
}

// runRecordedShared is runTracedShared before rendering: the recorded
// transmissions and the outcome.
func runRecordedShared(t *testing.T, spec Spec, topo *graph.Analysis) (*sim.Recorder, Outcome) {
	t.Helper()
	rec := &sim.Recorder{}
	spec.Observer = rec
	s, err := newSessionShared(spec, topo)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rec, out
}

// TestBatchMixedReplayParity is the golden-parity scenario that mixes
// replayed and fallback slots inside one phase: a batch whose benign
// instances collapse into a replaying vector lane group while two faulty
// instances stay on dynamic scalar nodes — one physical transmission then
// multiplexes plan-materialized parts and dynamically-flooded parts. The
// complete multiplexed trace and every instance outcome must be
// byte-identical with replay on and off, both with early decision and over
// the full budget, where every phase of the lane group's dynamic path (one
// flooder recycled phase over phase) is held to replay.
func TestBatchMixedReplayParity(t *testing.T) {
	g := gen.Figure1b()
	n := g.N()
	mkInstances := func() []BatchInstance {
		insts := make([]BatchInstance, 5)
		for i := range insts {
			inputs := make(map[graph.NodeID]sim.Value, n)
			for u := 0; u < n; u++ {
				inputs[graph.NodeID(u)] = sim.Value((u + i) % 2)
			}
			insts[i] = BatchInstance{Inputs: inputs}
		}
		// Two faulty instances: a tamperer and a silent node (stateful
		// adversaries are rebuilt per run by the caller).
		phaseLen := lbPhaseRounds(n)
		insts[1].Byzantine = map[graph.NodeID]sim.Node{3: adversary.NewTamper(g, 3, phaseLen, 7)}
		insts[3].Byzantine = map[graph.NodeID]sim.Node{5: &adversary.SilentNode{Me: 5}}
		return insts
	}
	runBatchTraced := func(disable, full bool) string {
		rec := &sim.Recorder{}
		out, err := RunBatch(context.Background(), BatchSpec{
			G: g, F: 2, Algorithm: Algo1, Observer: rec, FullBudget: full,
			forceDynamic: disable, Instances: mkInstances(),
		})
		if err != nil {
			t.Fatal(err)
		}
		var sb []byte
		for _, tr := range rec.Transmissions() {
			sb = fmt.Appendf(sb, "r%d %d->%v %s\n", tr.Round, tr.From, tr.Receivers, tr.Payload.Key())
		}
		sb = fmt.Appendf(sb, "outcome %+v\n", out)
		return string(sb)
	}
	for _, full := range []bool{false, true} {
		replayed := runBatchTraced(false, full)
		dynamic := runBatchTraced(true, full)
		if replayed != dynamic {
			t.Fatalf("mixed batch (full budget %v): replayed and dynamic executions diverge", full)
		}
	}
}
