package eval

import (
	"reflect"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/graph/gen"
)

// TestMonteCarloPooledScaffoldingParity is the verdict-stream identity
// contract of trial-scaffolding recycling: for every seed, pooled
// scaffolding (recycled RNGs, dense input slabs, pooled adversaries,
// recycled batch instances) must produce a MonteCarloResult byte-identical
// to freshScaffolding's per-trial construction — same OK tally and the
// same violations, with the same fault lists, strategies, and judged
// outcomes. The grid crosses every adversary strategy, the FaultProb
// mixed benign/faulty profile, and both execution shapes (unbatched and
// batched), and includes a config that actually violates so the
// comparison covers violation payloads, not just clean sweeps. The suite
// runs under -race in CI, where it also exercises the concurrent
// acquire/release of scratch and adversaries across workers.
func TestMonteCarloPooledScaffoldingParity(t *testing.T) {
	configs := []struct {
		name string
		cfg  MonteCarloConfig
	}{
		{"figure1a-silent", MonteCarloConfig{G: gen.Figure1a(), F: 1, Algorithm: Algo1, Trials: 12, Seed: 3, Strategies: []string{"silent"}}},
		{"figure1a-tamper", MonteCarloConfig{G: gen.Figure1a(), F: 1, Algorithm: Algo1, Trials: 12, Seed: 7, Strategies: []string{"tamper"}}},
		{"figure1a-equivocate", MonteCarloConfig{G: gen.Figure1a(), F: 1, Algorithm: Algo1, Trials: 12, Seed: 13, Strategies: []string{"equivocate"}}},
		{"figure1a-forge", MonteCarloConfig{G: gen.Figure1a(), F: 1, Algorithm: Algo1, Trials: 12, Seed: 17, Strategies: []string{"forge"}}},
		{"figure1b-faultprob", MonteCarloConfig{G: gen.Figure1b(), F: 1, Algorithm: Algo1, Trials: 16, Seed: 11, FaultProb: 0.5}},
		{"figure1a-f2-violating", MonteCarloConfig{G: gen.Figure1a(), F: 2, Algorithm: Algo1, Trials: 12, Seed: 5}},
	}
	hits0, _ := ReadTrialPoolStats()
	reuses0 := adversary.ReadRecycleStats()
	sawViolation := false
	for _, tc := range configs {
		for _, batch := range []int{0, 8} {
			cfg := tc.cfg
			cfg.Batch = batch
			fresh := cfg
			fresh.freshScaffolding = true
			want, err := MonteCarlo(fresh)
			if err != nil {
				t.Fatalf("%s batch=%d fresh: %v", tc.name, batch, err)
			}
			got, err := MonteCarlo(cfg)
			if err != nil {
				t.Fatalf("%s batch=%d pooled: %v", tc.name, batch, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s batch=%d: pooled scaffolding diverges\npooled: %+v\nfresh:  %+v", tc.name, batch, got, want)
			}
			if len(want.Violations) > 0 {
				sawViolation = true
			}
		}
	}
	if !sawViolation {
		t.Error("parity grid exercised no violations; add a violating config")
	}
	if hits1, _ := ReadTrialPoolStats(); hits1 == hits0 {
		t.Error("trial-scaffolding pool recorded no hits across the grid")
	}
	if adversary.ReadRecycleStats() == reuses0 {
		t.Error("adversary pools recorded no reuses across the grid")
	}
}

// TestMonteCarloPooledScaffoldingParallelParity re-runs one violating
// config with several workers: per-trial seeding makes pooled results
// identical to the fresh single-worker run of the same execution shape
// (batched outcomes legitimately differ from unbatched ones in judged
// detail, so each batch setting gets its own fresh reference). Under
// -race this crosses concurrent scratch acquire/release with concurrent
// adversary recycling.
func TestMonteCarloPooledScaffoldingParallelParity(t *testing.T) {
	base := MonteCarloConfig{G: gen.Figure1a(), F: 2, Algorithm: Algo1, Trials: 16, Seed: 5}
	for _, batch := range []int{0, 4} {
		fresh := base
		fresh.Batch = batch
		fresh.freshScaffolding = true
		want, err := MonteCarlo(fresh)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			cfg := base
			cfg.Workers = workers
			cfg.Batch = batch
			got, err := MonteCarlo(cfg)
			if err != nil {
				t.Fatalf("workers=%d batch=%d: %v", workers, batch, err)
			}
			if got.OK != want.OK || !reflect.DeepEqual(got.Violations, want.Violations) {
				t.Errorf("workers=%d batch=%d diverges from fresh single-worker run", workers, batch)
			}
		}
	}
}
