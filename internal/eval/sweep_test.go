package eval

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

func figureGrid() Grid {
	return Grid{
		Graphs:     []GraphCase{{Label: "figure1a", G: gen.Figure1a()}},
		Faults:     []int{1},
		Algorithms: []Algorithm{Algo1, Algo2},
		Strategies: []string{"none", "silent", "tamper"},
		Placements: 2,
		Seed:       99,
	}
}

func TestGridExpand(t *testing.T) {
	cells, err := figureGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 2 algorithms × (1 none-cell + 2 strategies × 2 placements) = 10.
	if len(cells) != 10 {
		t.Fatalf("cells = %d, want 10", len(cells))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
		if c.Strategy == "none" && c.faultSet.Len() != 0 {
			t.Fatalf("fault-free cell %d has fault set %v", i, c.faultSet)
		}
	}
	// Seeds must differ across cells (placement diversity comes from them).
	seeds := map[int64]bool{}
	for _, c := range cells {
		seeds[c.Seed] = true
	}
	if len(seeds) != len(cells) {
		t.Fatalf("per-cell seeds collide: %d unique of %d", len(seeds), len(cells))
	}
}

func TestGridExpandValidation(t *testing.T) {
	cases := []Grid{
		{}, // no graphs
		{Graphs: []GraphCase{{Label: "g", G: gen.Figure1a()}}},                                                // no faults
		{Graphs: []GraphCase{{Label: "nil"}}, Faults: []int{1}},                                               // nil graph
		{Graphs: []GraphCase{{Label: "g", G: gen.Figure1a()}}, Faults: []int{-1}},                             // negative f
		{Graphs: []GraphCase{{Label: "g", G: gen.Figure1a()}}, Faults: []int{1}, Strategies: []string{"wat"}}, // bad strategy
	}
	for i, g := range cases {
		if _, err := g.Expand(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestRunSweepAllOKOnFeasibleGraph(t *testing.T) {
	res, err := RunSweep(context.Background(), figureGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cells != 10 || res.Stats.OK != 10 || res.Stats.Errors != 0 || res.Stats.Violations != 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if res.Stats.Rounds >= res.Stats.BudgetRounds {
		t.Fatalf("no early-termination savings: executed %d of %d budgeted rounds",
			res.Stats.Rounds, res.Stats.BudgetRounds)
	}
	for _, c := range res.Cells {
		if c.Strategy != "none" && len(c.Faulty) != c.F {
			t.Fatalf("cell %d planted %d faults, want %d", c.Index, len(c.Faulty), c.F)
		}
	}
}

// TestRunSweepDeterministicAcrossWorkerCounts is the sweep's core
// contract: per-cell seeds make results a pure function of the grid, so
// the worker count must never change any outcome.
func TestRunSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	grid := figureGrid()
	var reference SweepResult
	for i, workers := range []int{1, 2, 7, 16} {
		res, err := RunSweep(context.Background(), grid, workers)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			reference = res
			continue
		}
		if !reflect.DeepEqual(reference, res) {
			t.Fatalf("workers=%d diverged from workers=1:\nref = %+v\ngot = %+v",
				workers, reference.Stats, res.Stats)
		}
	}
}

func TestRunSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSweep(ctx, figureGrid(), 2); err == nil {
		t.Fatal("canceled sweep reported success")
	}
}

func TestSweepResultWriteJSON(t *testing.T) {
	res, err := RunSweep(context.Background(), Grid{
		Graphs:     []GraphCase{{Label: "figure1a", G: gen.Figure1a()}},
		Faults:     []int{1},
		Strategies: []string{"silent"},
		Seed:       5,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"graph": "figure1a"`, `"algorithm": "algorithm-1"`,
		`"model": "local-broadcast"`, `"strategy": "silent"`, `"stats"`, `"budget_rounds"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("JSON missing %s:\n%s", want, out)
		}
	}
}

func TestRunSweepHybridCells(t *testing.T) {
	k6, err := gen.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSweep(context.Background(), Grid{
		Graphs:     []GraphCase{{Label: "K6", G: k6}},
		Faults:     []int{2},
		T:          1,
		Algorithms: []Algorithm{Algo3},
		Strategies: []string{"equivocate"},
		Models:     []sim.Model{sim.Hybrid},
		FaultSets:  []graph.Set{graph.NewSet(0)},
		Patterns:   [][]sim.Value{{1, 0}},
		Seed:       2,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cells != 1 || res.Stats.OK != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestMonteCarloDeterministicAcrossWorkerCounts(t *testing.T) {
	checkPhaseStructure(t)
	run := func(workers int) MonteCarloResult {
		res, err := MonteCarlo(MonteCarloConfig{
			G:         gen.Figure1a(),
			F:         1,
			Algorithm: Algo1,
			Trials:    12,
			Seed:      7,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(1)
	for _, workers := range []int{3, 8} {
		b := run(workers)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("workers=%d diverged: %+v vs %+v", workers, a, b)
		}
	}
}
