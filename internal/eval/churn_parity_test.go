package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/faultinject"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// The churn-parity suite enforces the fault-injection engine's graceful
// degradation contract: an injected world's run must be byte-identical
// whether the clean prefix replays the compiled plan up to the taint
// frontier (the default) or the whole run is forced onto the dynamic path
// (forceDynamic) — both over the same masked topology. And a zero-event
// schedule must be byte-identical to no schedule at all, on the static
// fast path.

// churnInputs builds the alternating input vector used across the suite.
func churnInputs(n, shift int) map[graph.NodeID]sim.Value {
	inputs := make(map[graph.NodeID]sim.Value, n)
	for u := 0; u < n; u++ {
		inputs[graph.NodeID(u)] = sim.Value((u + shift) % 2)
	}
	return inputs
}

// checkChurnReplayParity runs the injected spec with frontier replay and
// with replay forced off and requires identical SHA-256 trace digests.
func checkChurnReplayParity(t *testing.T, spec Spec) {
	t.Helper()
	spec.forceDynamic = false
	replayed := runTraced(t, spec)
	spec.forceDynamic = true
	dynamic := runTraced(t, spec)
	if dr, dd := traceDigest(replayed), traceDigest(dynamic); dr != dd {
		t.Fatalf("frontier-replay and forced-dynamic traces diverge (sha256 %s != %s):\nreplayed:\n%s\ndynamic:\n%s",
			dr, dd, replayed, dynamic)
	}
}

// TestChurnZeroEventScheduleParity is the zero-event property: a nil
// schedule, an empty non-nil schedule, and no schedule at all must produce
// byte-identical executions — the static replay fast path, untouched.
func TestChurnZeroEventScheduleParity(t *testing.T) {
	g := gen.Figure1b()
	base := Spec{G: g, F: 2, Algorithm: Algo1, Inputs: churnInputs(g.N(), 0)}
	want := traceDigest(runTraced(t, base))
	for name, sched := range map[string]*faultinject.Schedule{
		"nil":   nil,
		"empty": {},
	} {
		spec := base
		spec.Churn = sched
		if got := traceDigest(runTraced(t, spec)); got != want {
			t.Errorf("%s schedule: trace digest %s != static path %s", name, got, want)
		}
	}
}

// TestChurnReplayParityScheduleShapes drives the frontier-replay vs
// forced-dynamic check across schedule shapes: events at round 0 (no clean
// prefix), mid-phase (frontier cuts inside a phase's span), at a phase
// boundary, late (most phases replay), and each generator family (link
// churn, partition with heal, crash burst with recovery).
func TestChurnReplayParityScheduleShapes(t *testing.T) {
	g := gen.Figure1b()
	n := g.N()
	phaseLen := lbPhaseRounds(n)
	mk := func(events ...faultinject.Event) *faultinject.Schedule {
		s := &faultinject.Schedule{Events: events}
		s.Normalize()
		if err := s.Validate(g); err != nil {
			t.Fatalf("bad schedule: %v", err)
		}
		return s
	}
	schedules := map[string]*faultinject.Schedule{
		"edge-down-round0": mk(
			faultinject.Event{Round: 0, Kind: faultinject.EdgeDown, U: 0, V: 1},
		),
		"edge-flap-midphase": mk(
			faultinject.Event{Round: phaseLen + 1, Kind: faultinject.EdgeDown, U: 2, V: 3},
			faultinject.Event{Round: phaseLen + 3, Kind: faultinject.EdgeUp, U: 2, V: 3},
		),
		"node-crash-boundary": mk(
			faultinject.Event{Round: phaseLen, Kind: faultinject.NodeDown, Node: 5},
			faultinject.Event{Round: 2 * phaseLen, Kind: faultinject.NodeUp, Node: 5},
		),
		"partition-late": mk(
			faultinject.Event{Round: 2*phaseLen + 2, Kind: faultinject.PartitionOpen, Side: []graph.NodeID{0, 1, 2}},
			faultinject.Event{Round: 3 * phaseLen, Kind: faultinject.PartitionHeal, Side: []graph.NodeID{0, 1, 2}},
		),
		"burst-two-nodes": mk(
			faultinject.Event{Round: phaseLen + 2, Kind: faultinject.NodeDown, Node: 1},
			faultinject.Event{Round: phaseLen + 2, Kind: faultinject.NodeDown, Node: 4},
			faultinject.Event{Round: 2*phaseLen + 2, Kind: faultinject.NodeUp, Node: 1},
			faultinject.Event{Round: 2*phaseLen + 2, Kind: faultinject.NodeUp, Node: 4},
		),
	}
	for name, sched := range schedules {
		for _, full := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-full%v", name, full), func(t *testing.T) {
				checkChurnReplayParity(t, Spec{
					G: g, F: 2, Algorithm: Algo1, Inputs: churnInputs(n, 0),
					Churn: sched, FullBudget: full,
				})
			})
		}
	}
}

// TestChurnReplayParityGenerated runs the same check over generator-built
// schedules on seeded random graphs — the shapes Monte Carlo injects.
func TestChurnReplayParityGenerated(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		n := 6 + int(seed)%3
		g, err := gen.RandomWithMinConnectivity(n, 3, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		phaseLen := lbPhaseRounds(n)
		rng := rand.New(adversary.NewFastSource(seed * 101))
		for name, sched := range map[string]*faultinject.Schedule{
			"churn":     faultinject.Churn(g, rng, 3, phaseLen, phaseLen, 2*phaseLen),
			"partition": faultinject.Partition(g, rng, phaseLen+1, 2*phaseLen+1),
			"burst":     faultinject.Burst(g, rng, 2, phaseLen, phaseLen),
		} {
			t.Run(fmt.Sprintf("seed%d-%s", seed, name), func(t *testing.T) {
				checkChurnReplayParity(t, Spec{
					G: g, F: 1, Algorithm: Algo1, Inputs: churnInputs(n, int(seed)),
					Churn: sched,
				})
			})
		}
	}
}

// TestChurnByzantineFallsBackDynamic pins the tier decision for
// Byzantine-plus-churn worlds: masked and delta plans assume the static
// adjacency, so the run must go fully dynamic — and still match its
// forced-dynamic twin (trivially, but the mask wiring differs: both sides
// route through the masked topology).
func TestChurnByzantineFallsBackDynamic(t *testing.T) {
	g := gen.Figure1b()
	n := g.N()
	phaseLen := lbPhaseRounds(n)
	sched := &faultinject.Schedule{Events: []faultinject.Event{
		{Round: phaseLen, Kind: faultinject.EdgeDown, U: 0, V: 7},
	}}
	spec := Spec{G: g, F: 2, Algorithm: Algo1, Inputs: churnInputs(n, 1), Churn: sched}
	spec.Byzantine = map[graph.NodeID]sim.Node{3: adversary.NewTamper(g, 3, phaseLen, 7)}
	if mode := func() replayMode { s := spec; _ = s.normalize(); return s.replayMode() }(); mode != replayOff {
		t.Fatalf("Byzantine+churn spec classified %v, want replayOff", mode)
	}
	spec.forceDynamic = false
	spec.Byzantine = map[graph.NodeID]sim.Node{3: adversary.NewTamper(g, 3, phaseLen, 7)}
	a := runTraced(t, spec)
	spec.forceDynamic = true
	spec.Byzantine = map[graph.NodeID]sim.Node{3: adversary.NewTamper(g, 3, phaseLen, 7)}
	b := runTraced(t, spec)
	if traceDigest(a) != traceDigest(b) {
		t.Fatal("Byzantine+churn traces diverge between replay-allowed and replay-disabled wiring")
	}
}

// TestChurnPooledParity interleaves distinct schedules (and the static
// world) through one warmed pool: recycled churn state re-arms the mask,
// the cursor, and every node's taint frontier per reset, so each run's
// trace must match its fresh-state twin, and static runs must never be
// contaminated by a churned predecessor.
func TestChurnPooledParity(t *testing.T) {
	g := gen.Figure1b()
	n := g.N()
	phaseLen := lbPhaseRounds(n)
	early := &faultinject.Schedule{Events: []faultinject.Event{
		{Round: 1, Kind: faultinject.EdgeDown, U: 1, V: 2},
	}}
	late := &faultinject.Schedule{Events: []faultinject.Event{
		{Round: 2 * phaseLen, Kind: faultinject.NodeDown, Node: 6},
		{Round: 2*phaseLen + 3, Kind: faultinject.NodeUp, Node: 6},
	}}
	specs := []Spec{
		{G: g, F: 2, Algorithm: Algo1, Inputs: churnInputs(n, 0)},
		{G: g, F: 2, Algorithm: Algo1, Inputs: churnInputs(n, 0), Churn: early},
		{G: g, F: 2, Algorithm: Algo1, Inputs: churnInputs(n, 1), Churn: late},
	}
	fresh := make([]string, len(specs))
	for i, spec := range specs {
		fresh[i] = traceDigest(runTracedShared(t, spec, graph.NewAnalysis(g)))
	}
	topo := graph.NewAnalysis(g)
	hits0, _ := ReadPoolStats()
	// The traces are rendered only after every run, as in
	// TestPooledSessionTraceParity: rendering one in between allocates
	// enough to collect the pooled state before the next run can recycle
	// it.
	type recorded struct {
		rec *sim.Recorder
		out Outcome
	}
	runs := make([]recorded, 0, poolParityIters*len(specs))
	for iter := 0; iter < poolParityIters; iter++ {
		for _, spec := range specs {
			rec, out := runRecordedShared(t, spec, topo)
			runs = append(runs, recorded{rec, out})
		}
	}
	hits1, _ := ReadPoolStats()
	for k, r := range runs {
		iter, i := k/len(specs), k%len(specs)
		if d := traceDigest(traceString(r.rec, r.out)); d != fresh[i] {
			t.Fatalf("iter %d spec %d: pooled trace digest %s != fresh-state %s", iter, i, d, fresh[i])
		}
	}
	if hits1 == hits0 {
		t.Fatal("run pool never hit: churn state recycling was not exercised")
	}
}

// TestChurnCountersAdvance pins the observability contract: an injected
// run advances the process-wide event counter, a replay-qualified injected
// run advances the invalidation counter, and the outcome is annotated.
func TestChurnCountersAdvance(t *testing.T) {
	g := gen.Figure1b()
	sched := &faultinject.Schedule{Events: []faultinject.Event{
		{Round: 0, Kind: faultinject.EdgeDown, U: 0, V: 1},
		{Round: 3, Kind: faultinject.EdgeUp, U: 0, V: 1},
	}}
	ev0, inv0 := ReadChurnStats()
	out, err := Run(Spec{G: g, F: 2, Algorithm: Algo1, Inputs: churnInputs(g.N(), 0), Churn: sched})
	if err != nil {
		t.Fatal(err)
	}
	ev1, inv1 := ReadChurnStats()
	if ev1 < ev0+2 {
		t.Errorf("churn event counter advanced %d, want >= 2", ev1-ev0)
	}
	if inv1 <= inv0 {
		t.Error("plan invalidation counter did not advance for an injected replay-qualified run")
	}
	if out.ChurnEvents != 2 {
		t.Errorf("outcome ChurnEvents = %d, want 2", out.ChurnEvents)
	}
	if out.MinConnectivity <= 0 || out.MinConnectivity > g.VertexConnectivity() {
		t.Errorf("outcome MinConnectivity = %d outside (0, %d]", out.MinConnectivity, g.VertexConnectivity())
	}
}

// TestChurnDegradedClassification pins the verdict contract: a world
// pushed below the paper's thresholds is classified DegradedConnectivity;
// one that stays at or above them is not.
func TestChurnDegradedClassification(t *testing.T) {
	g := gen.Figure1b() // connectivity 4, f=2 threshold ⌊3·2/2⌋+1 = 4
	mild := &faultinject.Schedule{Events: []faultinject.Event{
		{Round: 2, Kind: faultinject.EdgeDown, U: 0, V: 1},
		{Round: 4, Kind: faultinject.EdgeUp, U: 0, V: 1},
	}}
	harsh := &faultinject.Schedule{Events: []faultinject.Event{
		{Round: 0, Kind: faultinject.NodeDown, Node: 0},
		{Round: 0, Kind: faultinject.NodeDown, Node: 3},
		{Round: 0, Kind: faultinject.NodeDown, Node: 5},
	}}
	mildOut, err := Run(Spec{G: g, F: 1, Algorithm: Algo1, Inputs: churnInputs(g.N(), 0), Churn: mild})
	if err != nil {
		t.Fatal(err)
	}
	// f=1: threshold ⌊3/2⌋+1 = 2, min degree 2; one downed edge keeps
	// figure1b far above both.
	if mildOut.DegradedConnectivity {
		t.Errorf("mild flap classified degraded (min connectivity %d)", mildOut.MinConnectivity)
	}
	harshOut, err := Run(Spec{G: g, F: 2, Algorithm: Algo1, Inputs: churnInputs(g.N(), 0), Churn: harsh})
	if err != nil {
		t.Fatal(err)
	}
	if !harshOut.DegradedConnectivity {
		t.Errorf("three-node burst not classified degraded (min connectivity %d)", harshOut.MinConnectivity)
	}
}
