package eval

import (
	"reflect"
	"strings"
	"testing"

	"lbcast/internal/graph/gen"
)

// These tests pin the Monte Carlo churn-profile contract: schedule
// derivation is seed-deterministic and salt-separated from the trial
// stream, sub-threshold worlds are excused as Degraded (never reported as
// agreement violations), the trial ledger always balances, and pooled
// scaffolding under churn matches fresh construction verdict-for-verdict.

// TestMonteCarloChurnReproducible requires the full result — verdict
// stream, degraded tally, violations — to be identical across repeated
// runs and across worker counts for every profile kind.
func TestMonteCarloChurnReproducible(t *testing.T) {
	profiles := map[string]ChurnProfile{
		"churn":     {Kind: "churn", Prob: 0.5, Events: 2, Start: 4},
		"partition": {Kind: "partition", Start: 6},
		"burst":     {Kind: "burst", Events: 4},
	}
	for name, p := range profiles {
		base := MonteCarloConfig{
			G: gen.Figure1b(), F: 2, Algorithm: Algo1, Trials: 16, Seed: 1,
			ChurnProfile: p,
		}
		want, err := MonteCarlo(base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Workers = workers
			got, err := MonteCarlo(cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: result diverges\ngot:  %+v\nwant: %+v", name, workers, got, want)
			}
		}
	}
}

// TestMonteCarloChurnZeroProfileIdentical: an inactive profile must leave
// the sweep byte-identical to no profile at all — the schedule RNG is
// salt-separated from the trial stream and never drawn when inactive.
func TestMonteCarloChurnZeroProfileIdentical(t *testing.T) {
	base := MonteCarloConfig{G: gen.Figure1a(), F: 1, Algorithm: Algo1, Trials: 10, Seed: 42}
	want, err := MonteCarlo(base)
	if err != nil {
		t.Fatal(err)
	}
	withZero := base
	withZero.ChurnProfile = ChurnProfile{}
	got, err := MonteCarlo(withZero)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("zero profile perturbed the sweep:\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestMonteCarloChurnDegradedExcusesFailures pins the verdict-class
// contract on an empirically chosen sub-threshold world: a burst that
// crashes four nodes of figure1b at round zero with no recovery drops the
// residual graph below the paper's ⌊3f/2⌋+1 threshold, and the trial that
// fails there must be counted Degraded — never surfaced as an agreement
// violation — with the ledger balancing exactly.
func TestMonteCarloChurnDegradedExcusesFailures(t *testing.T) {
	res, err := MonteCarlo(MonteCarloConfig{
		G: gen.Figure1b(), F: 2, Algorithm: Algo1, Trials: 32, Seed: 1,
		ChurnProfile: ChurnProfile{Kind: "burst", Events: 4, Start: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == 0 {
		t.Fatal("no degraded trials: the engineered sub-threshold world was not exercised")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("sub-threshold failures surfaced as violations: %+v", res.Violations)
	}
	if res.OK+res.Degraded+len(res.Violations) != res.Trials {
		t.Fatalf("trial ledger does not balance: ok=%d degraded=%d violations=%d trials=%d",
			res.OK, res.Degraded, len(res.Violations), res.Trials)
	}
}

// TestMonteCarloChurnValidation covers the profile's rejection surface.
func TestMonteCarloChurnValidation(t *testing.T) {
	base := MonteCarloConfig{G: gen.Figure1a(), F: 1, Algorithm: Algo1, Trials: 2}
	cases := map[string]func(*MonteCarloConfig){
		"bad kind":       func(c *MonteCarloConfig) { c.ChurnProfile = ChurnProfile{Kind: "meteor"} },
		"prob > 1":       func(c *MonteCarloConfig) { c.ChurnProfile = ChurnProfile{Kind: "churn", Prob: 1.5} },
		"prob < 0":       func(c *MonteCarloConfig) { c.ChurnProfile = ChurnProfile{Kind: "churn", Prob: -0.1} },
		"negative start": func(c *MonteCarloConfig) { c.ChurnProfile = ChurnProfile{Kind: "churn", Start: -1} },
		"negative span":  func(c *MonteCarloConfig) { c.ChurnProfile = ChurnProfile{Kind: "burst", Span: -2} },
		"batched trials": func(c *MonteCarloConfig) {
			c.ChurnProfile = ChurnProfile{Kind: "churn"}
			c.Batch = 4
		},
	}
	for name, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, err := MonteCarlo(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Batch of 1 is unbatched execution and stays legal under churn.
	ok := base
	ok.ChurnProfile = ChurnProfile{Kind: "churn"}
	ok.Batch = 1
	if _, err := MonteCarlo(ok); err != nil {
		t.Errorf("batch=1 with churn rejected: %v", err)
	}
}

// TestMonteCarloAdaptiveStrategy: the transcript-driven adversary is
// accepted by name, remains opt-in (absent from the default rotation, so
// unlisted sweeps keep their historical verdict streams), and produces a
// reproducible sweep both alone and stacked with an injected world.
func TestMonteCarloAdaptiveStrategy(t *testing.T) {
	run := func(cfg MonteCarloConfig) MonteCarloResult {
		t.Helper()
		res, err := MonteCarlo(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := MonteCarloConfig{
		G: gen.Figure1b(), F: 2, Algorithm: Algo1, Trials: 8, Seed: 21,
		Strategies: []string{"adaptive"},
	}
	if a, b := run(base), run(base); !reflect.DeepEqual(a, b) {
		t.Errorf("adaptive sweep not reproducible:\n%+v\n%+v", a, b)
	}
	for _, v := range run(base).Violations {
		if !strings.Contains(v.Strategy, "adaptive") {
			t.Errorf("adaptive-only sweep reported strategy %q", v.Strategy)
		}
	}
	churned := base
	churned.ChurnProfile = ChurnProfile{Kind: "churn", Events: 1, Start: 3}
	if a, b := run(churned), run(churned); !reflect.DeepEqual(a, b) {
		t.Error("adaptive sweep over an injected world not reproducible")
	}
}

// TestMonteCarloChurnPooledParity extends the scaffolding-parity contract
// to injected worlds: pooled trial state (recycled masked topologies,
// frontiers, cursors, adversaries) must reproduce freshScaffolding's
// verdict stream exactly, including the degraded tally.
func TestMonteCarloChurnPooledParity(t *testing.T) {
	configs := []MonteCarloConfig{
		{G: gen.Figure1b(), F: 2, Algorithm: Algo1, Trials: 32, Seed: 1,
			ChurnProfile: ChurnProfile{Kind: "burst", Events: 4, Start: 0}},
		{G: gen.Figure1b(), F: 2, Algorithm: Algo1, Trials: 12, Seed: 9,
			ChurnProfile: ChurnProfile{Kind: "churn", Prob: 0.5, Start: 4}},
		{G: gen.Figure1a(), F: 1, Algorithm: Algo1, Trials: 12, Seed: 7,
			ChurnProfile: ChurnProfile{Kind: "partition", Start: 5},
			Strategies:   []string{"adaptive"}},
	}
	sawDegraded := false
	for i, cfg := range configs {
		fresh := cfg
		fresh.freshScaffolding = true
		want, err := MonteCarlo(fresh)
		if err != nil {
			t.Fatalf("config %d fresh: %v", i, err)
		}
		got, err := MonteCarlo(cfg)
		if err != nil {
			t.Fatalf("config %d pooled: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("config %d: pooled churn scaffolding diverges\npooled: %+v\nfresh:  %+v", i, got, want)
		}
		if want.Degraded > 0 {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Error("churn parity grid exercised no degraded trials; re-tune a config")
	}
}
