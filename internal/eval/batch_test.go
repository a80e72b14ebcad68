package eval

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/core"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// batchFixture builds B instances with deterministic, varied inputs and
// fault patterns (strategy rotates per instance) for the given graph.
// buildByz is called twice per comparison so that stateful adversaries
// (tamper, forge) restart identically in the batch and independent runs.
type batchFixture struct {
	g    *graph.Graph
	f    int
	alg  Algorithm
	b    int
	seed int64
}

func (fx batchFixture) instances() []BatchInstance {
	n := fx.g.N()
	phaseLen := core.PhaseRounds(n)
	insts := make([]BatchInstance, fx.b)
	for i := range insts {
		rng := rand.New(rand.NewSource(cellSeed(fx.seed, i)))
		inputs := make(map[graph.NodeID]sim.Value, n)
		for u := 0; u < n; u++ {
			inputs[graph.NodeID(u)] = sim.Value(rng.Intn(2))
		}
		byz := make(map[graph.NodeID]sim.Node)
		if fx.f > 0 && i%4 != 0 { // every fourth instance fault-free
			perm := rng.Perm(n)
			for _, p := range perm[:fx.f] {
				u := graph.NodeID(p)
				switch i % 4 {
				case 1:
					byz[u] = &adversary.SilentNode{Me: u}
				case 2:
					byz[u] = adversary.NewTamper(fx.g, u, phaseLen, rng.Int63())
				case 3:
					byz[u] = adversary.NewForger(fx.g, u, phaseLen, rng.Int63())
				}
			}
		}
		insts[i] = BatchInstance{Inputs: inputs, Byzantine: byz}
	}
	return insts
}

// keyFields projects the outcome fields a batch must reproduce exactly:
// decisions, the three properties, and the round accounting. Engine
// counters are intentionally excluded (transmissions are shared by
// multiplexing).
type keyFields struct {
	Decisions   map[graph.NodeID]sim.Value
	Agreement   bool
	Validity    bool
	Termination bool
	Rounds      int
	Budget      int
}

func project(o Outcome) keyFields {
	return keyFields{
		Decisions:   o.Decisions,
		Agreement:   o.Agreement,
		Validity:    o.Validity,
		Termination: o.Termination,
		Rounds:      o.Rounds,
		Budget:      o.Budget,
	}
}

// TestBatchMatchesIndependentSessions is the batch-equivalence contract:
// B instances in one batch decide exactly as B separate Session runs of
// the same instances — same decisions, same properties, same per-instance
// round counts — across algorithms, graphs, adversaries, and both
// full-budget and early-terminating modes.
func TestBatchMatchesIndependentSessions(t *testing.T) {
	cases := []struct {
		name       string
		fx         batchFixture
		fullBudget bool
	}{
		{"algo1-figure1a", batchFixture{g: gen.Figure1a(), f: 1, alg: Algo1, b: 8, seed: 11}, false},
		{"algo1-figure1b", batchFixture{g: gen.Figure1b(), f: 2, alg: Algo1, b: 6, seed: 23}, false},
		{"algo1-figure1a-full-budget", batchFixture{g: gen.Figure1a(), f: 1, alg: Algo1, b: 4, seed: 31}, true},
		{"algo2-figure1b", batchFixture{g: gen.Figure1b(), f: 2, alg: Algo2, b: 6, seed: 47}, false},
		// f=0 forces every instance benign: the whole batch collapses into
		// one value-vector lane group, exercising the vectorized path end
		// to end against scalar Session runs.
		{"algo1-figure1b-all-benign", batchFixture{g: gen.Figure1b(), f: 0, alg: Algo1, b: 8, seed: 59}, false},
		{"algo1-figure1a-all-benign-full-budget", batchFixture{g: gen.Figure1a(), f: 0, alg: Algo1, b: 5, seed: 61}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Batched execution.
			batch, err := RunBatch(context.Background(), BatchSpec{
				G:          tc.fx.g,
				F:          tc.fx.f,
				Algorithm:  tc.fx.alg,
				FullBudget: tc.fullBudget,
				Instances:  tc.fx.instances(),
			})
			if err != nil {
				t.Fatal(err)
			}
			// Independent runs of freshly rebuilt instances (stateful
			// adversaries restart identically).
			for i, inst := range tc.fx.instances() {
				solo, err := Run(Spec{
					G:          tc.fx.g,
					F:          tc.fx.f,
					Algorithm:  tc.fx.alg,
					FullBudget: tc.fullBudget,
					Inputs:     inst.Inputs,
					Byzantine:  inst.Byzantine,
				})
				if err != nil {
					t.Fatal(err)
				}
				got, want := project(batch.Outcomes[i]), project(solo)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("instance %d diverges:\nbatch:       %+v\nindependent: %+v", i, got, want)
				}
			}
		})
	}
}

// TestSingleGroupBatchesStepNodesDirectly pins where sim.BatchNode is
// built: only when two or more lane groups share the engine. A one-instance
// batch, benign or faulty, and an all-benign batch (one vector group) step
// their group's nodes directly.
func TestSingleGroupBatchesStepNodesDirectly(t *testing.T) {
	fx := func(f, b int) []BatchInstance {
		return batchFixture{g: gen.Figure1a(), f: f, alg: Algo1, b: b, seed: 3}.instances()
	}
	for _, tc := range []struct {
		name      string
		f         int
		instances []BatchInstance
		multiplex bool
	}{
		{"benign-one", 1, fx(1, 1), false},
		{"faulty-one", 1, fx(1, 2)[1:], false},
		{"all-benign", 0, fx(0, 4), false},
		{"mixed", 1, fx(1, 4), true},
	} {
		s, err := NewBatchSession(BatchSpec{G: gen.Figure1a(), F: tc.f, Algorithm: Algo1, Instances: tc.instances})
		if err != nil {
			t.Fatal(err)
		}
		st, err := newBatchLoopState(s)
		if err != nil {
			t.Fatal(err)
		}
		st.eng.Close()
		if got := st.batchNodes != nil; got != tc.multiplex {
			t.Errorf("%s: built batch nodes %v, want %v", tc.name, got, tc.multiplex)
		}
		for u, nd := range st.nodes {
			if _, ok := nd.(*sim.BatchNode); ok != tc.multiplex {
				t.Errorf("%s: engine node %d is a batch node: %v, want %v", tc.name, u, ok, tc.multiplex)
			}
		}
	}
}

// TestBatchEarlyRetirementSavesRounds checks that a mixed batch retires
// fast instances early: a fault-free instance must record fewer rounds
// than the batch total when a slower instance keeps the loop alive.
func TestBatchEarlyRetirementSavesRounds(t *testing.T) {
	g := gen.Figure1a()
	n := g.N()
	allOnes := make(map[graph.NodeID]sim.Value, n)
	split := make(map[graph.NodeID]sim.Value, n)
	for u := 0; u < n; u++ {
		allOnes[graph.NodeID(u)] = sim.One
		split[graph.NodeID(u)] = sim.Value(u % 2)
	}
	// Instance 0 is benign; instance 1 has a silent fault on the sparse
	// 5-cycle, where the early-decision certificate conservatively
	// withholds and the instance burns its full budget.
	out, err := RunBatch(context.Background(), BatchSpec{
		G: g, F: 1, Algorithm: Algo1,
		Instances: []BatchInstance{
			{Inputs: allOnes},
			{Inputs: split, Byzantine: map[graph.NodeID]sim.Node{2: &adversary.SilentNode{Me: 2}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("batch violated consensus: %+v", out)
	}
	if out.Outcomes[0].Rounds >= out.Outcomes[1].Rounds {
		t.Errorf("benign instance ran %d rounds, slower instance %d — expected early retirement",
			out.Outcomes[0].Rounds, out.Outcomes[1].Rounds)
	}
	if out.Rounds != out.Outcomes[1].Rounds {
		t.Errorf("batch rounds %d != slowest instance %d", out.Rounds, out.Outcomes[1].Rounds)
	}
}

// TestBatchTransmissionMultiplexing checks the wire-level win: a batch of
// B identical benign instances uses far fewer physical transmissions than
// B independent runs.
func TestBatchTransmissionMultiplexing(t *testing.T) {
	fx := batchFixture{g: gen.Figure1a(), f: 0, alg: Algo1, b: 8, seed: 3}
	batch, err := RunBatch(context.Background(), BatchSpec{
		G: fx.g, F: 0, Algorithm: Algo1, Instances: fx.instances(),
	})
	if err != nil {
		t.Fatal(err)
	}
	soloTotal := 0
	for _, inst := range fx.instances() {
		solo, err := Run(Spec{G: fx.g, F: 0, Algorithm: Algo1, Inputs: inst.Inputs})
		if err != nil {
			t.Fatal(err)
		}
		soloTotal += solo.Metrics.Transmissions
	}
	if batch.Metrics.Transmissions*2 >= soloTotal {
		t.Errorf("batch transmissions %d not < half of independent total %d",
			batch.Metrics.Transmissions, soloTotal)
	}
}

// TestNewBatchSessionValidation exercises the spec validation paths.
func TestNewBatchSessionValidation(t *testing.T) {
	g := gen.Figure1a()
	if _, err := NewBatchSession(BatchSpec{G: g, F: 1}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := NewBatchSession(BatchSpec{F: 1, Instances: []BatchInstance{{}}}); err == nil {
		t.Error("nil graph accepted")
	}
	bad := BatchSpec{G: g, F: 1, Instances: []BatchInstance{
		{Inputs: map[graph.NodeID]sim.Value{99: sim.One}},
	}}
	if _, err := NewBatchSession(bad); err == nil {
		t.Error("out-of-range instance input accepted")
	}
}

// TestMonteCarloBatchedMatchesUnbatched checks that batched Monte Carlo
// groups produce exactly the unbatched verdicts: same OK tally and the
// same violations in the same trial slots.
func TestMonteCarloBatchedMatchesUnbatched(t *testing.T) {
	checkPhaseStructure(t)
	cfg := MonteCarloConfig{
		G: gen.Figure1a(), F: 1, Algorithm: Algo1, Trials: 24, Seed: 9,
	}
	plain, err := MonteCarlo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{2, 7, 16, 64} {
		cfgB := cfg
		cfgB.Batch = batch
		batched, err := MonteCarlo(cfgB)
		if err != nil {
			t.Fatal(err)
		}
		if batched.OK != plain.OK || !reflect.DeepEqual(batched.Violations, plain.Violations) {
			t.Errorf("batch=%d diverges: %+v vs %+v", batch, batched, plain)
		}
	}
	// With FaultProb most trials are benign and ride the vector group;
	// verdicts must still match the unbatched run exactly.
	cfgP := cfg
	cfgP.FaultProb = 0.3
	plainP, err := MonteCarlo(cfgP)
	if err != nil {
		t.Fatal(err)
	}
	cfgP.Batch = 12
	batchedP, err := MonteCarlo(cfgP)
	if err != nil {
		t.Fatal(err)
	}
	if batchedP.OK != plainP.OK || !reflect.DeepEqual(batchedP.Violations, plainP.Violations) {
		t.Errorf("fault-prob batch diverges: %+v vs %+v", batchedP, plainP)
	}
}
