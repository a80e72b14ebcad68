package eval

import (
	"testing"

	"lbcast/internal/graph/gen"
)

func TestMonteCarloCleanOnFeasibleGraph(t *testing.T) {
	checkPhaseStructure(t)
	res, err := MonteCarlo(MonteCarloConfig{
		G:         gen.Figure1a(),
		F:         1,
		Algorithm: Algo1,
		Trials:    15,
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != res.Trials {
		t.Fatalf("violations on a feasible graph: %+v", res.Violations)
	}
}

func TestMonteCarloReproducible(t *testing.T) {
	run := func() MonteCarloResult {
		res, err := MonteCarlo(MonteCarloConfig{
			G:         gen.Figure1a(),
			F:         1,
			Algorithm: Algo2,
			Trials:    6,
			Seed:      42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.OK != b.OK || a.Trials != b.Trials {
		t.Fatalf("non-reproducible: %+v vs %+v", a, b)
	}
}

func TestMonteCarloValidation(t *testing.T) {
	if _, err := MonteCarlo(MonteCarloConfig{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := MonteCarlo(MonteCarloConfig{G: gen.Figure1a(), F: 1, Faults: 2}); err == nil {
		t.Fatal("faults > f accepted")
	}
	if _, err := MonteCarlo(MonteCarloConfig{
		G: gen.Figure1a(), F: 1, Algorithm: Algo1,
		Trials: 1, Strategies: []string{"bogus"},
	}); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}

func TestMonteCarloFewerFaultsThanBound(t *testing.T) {
	// f=2 configured but only 1 fault planted: must still succeed.
	res, err := MonteCarlo(MonteCarloConfig{
		G:         gen.Figure1b(),
		F:         2,
		Faults:    1,
		Algorithm: Algo2,
		Trials:    4,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != res.Trials {
		t.Fatalf("violations: %+v", res.Violations)
	}
}
