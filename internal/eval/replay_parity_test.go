package eval

import (
	"context"
	"fmt"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/core"
	"lbcast/internal/flood"
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

// TestSessionReplayParityAlgo3 covers the hybrid algorithm's fault-free
// replay (the other phase-based protocol).
func TestSessionReplayParityAlgo3(t *testing.T) {
	g, err := gen.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[graph.NodeID]sim.Value{0: 1, 1: 0, 2: 1, 3: 0, 4: 1}
	checkSessionReplayParity(t, Spec{G: g, F: 1, T: 1, Algorithm: Algo3, Inputs: inputs, Model: sim.Hybrid})
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

// checkFaultySessionReplayParity is checkSessionReplayParity for stateful
// adversaries: each side gets freshly-built Byzantine nodes so their RNG
// streams restart identically.
func checkFaultySessionReplayParity(t *testing.T, base Spec, mkByz func() map[graph.NodeID]sim.Node) {
	t.Helper()
	spec := base
	spec.Byzantine = mkByz()
	spec.forceDynamic = false
	replayed := runTraced(t, spec)
	spec.Byzantine = mkByz()
	spec.forceDynamic = true
	dynamic := runTraced(t, spec)
	if replayed != dynamic {
		t.Fatalf("replayed and dynamic executions diverge:\nreplayed:\n%s\ndynamic:\n%s", replayed, dynamic)
	}
}

// TestSessionMaskedReplayParity drives crash-from-start fault patterns —
// the shape masked plans compile — through the on/off parity check and
// requires the masked path to actually fire: masked compiles and replay
// sessions must both advance.
func TestSessionMaskedReplayParity(t *testing.T) {
	g := gen.Figure1b()
	n := g.N()
	inputs := make(map[graph.NodeID]sim.Value, n)
	for u := 0; u < n; u++ {
		inputs[graph.NodeID(u)] = sim.Value(u % 2)
	}
	base := Spec{G: g, F: 2, Algorithm: Algo1, Inputs: inputs}
	before := flood.ReadPlanStats()
	for _, crash := range [][]graph.NodeID{{2}, {6}, {2, 6}, {0, 5}} {
		mkByz := func() map[graph.NodeID]sim.Node {
			byz := make(map[graph.NodeID]sim.Node, len(crash))
			for _, u := range crash {
				byz[u] = &adversary.SilentNode{Me: u}
			}
			return byz
		}
		t.Run(fmt.Sprintf("crash%v", crash), func(t *testing.T) {
			checkFaultySessionReplayParity(t, base, mkByz)
		})
	}
	after := flood.ReadPlanStats()
	if after.MaskedCompiles <= before.MaskedCompiles {
		t.Error("no masked plans compiled: the crash patterns did not take the masked path")
	}
	if after.ReplaySessions <= before.ReplaySessions {
		t.Error("no replay sessions recorded: masked runs did not replay")
	}
}

// TestSessionDeltaReplayParity drives value-faulty patterns — tamper,
// forge, and crash+tamper mixes, the shapes delta replay covers — through
// the on/off parity check and requires delta replay sessions to advance.
func TestSessionDeltaReplayParity(t *testing.T) {
	g := gen.Figure1b()
	n := g.N()
	phaseLen := lbPhaseRounds(n)
	inputs := make(map[graph.NodeID]sim.Value, n)
	for u := 0; u < n; u++ {
		inputs[graph.NodeID(u)] = sim.Value((u + 1) % 2)
	}
	base := Spec{G: g, F: 2, Algorithm: Algo1, Inputs: inputs}
	before := flood.ReadPlanStats()
	for name, mkByz := range map[string]func() map[graph.NodeID]sim.Node{
		"tamper@3": func() map[graph.NodeID]sim.Node {
			return map[graph.NodeID]sim.Node{3: adversary.NewTamper(g, 3, phaseLen, 7)}
		},
		"forge@5": func() map[graph.NodeID]sim.Node {
			return map[graph.NodeID]sim.Node{5: adversary.NewForger(g, 5, phaseLen, 21)}
		},
		"tamper@2+crash@6": func() map[graph.NodeID]sim.Node {
			return map[graph.NodeID]sim.Node{
				2: adversary.NewTamper(g, 2, phaseLen, 13),
				6: &adversary.SilentNode{Me: 6},
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			checkFaultySessionReplayParity(t, base, mkByz)
		})
	}
	after := flood.ReadPlanStats()
	if after.DeltaReplaySessions <= before.DeltaReplaySessions {
		t.Error("no delta replay sessions recorded: the value-faulty patterns did not take the delta path")
	}
}
