// Command lbcmc runs a randomized Monte Carlo robustness sweep: repeated
// consensus executions with random inputs, random fault placements, and a
// random strategy (silent / tamper / equivocate / forge) per trial, all
// reproducible from a seed. Trials run in parallel on a bounded worker
// pool; each trial derives its randomness from its own seed, so results
// are identical whatever the worker count. On graphs satisfying the
// paper's conditions the expected tally is trials/trials.
//
// With -batch B, trials execute in multiplexed groups of B through the
// batched multi-instance engine (one shared round loop and topology
// analysis per group) — the high-throughput path. Verdicts are identical
// to independent trials; only wall-clock time changes.
//
// With -churn {churn,partition,burst}, every trial additionally receives a
// seeded fault-injection schedule (random link flaps, a random partition,
// or a correlated crash burst) applied at round boundaries. Trials whose
// injected world drops below the paper's connectivity thresholds count as
// degraded — the expected failure of an infeasible world — never as
// violations.
//
// With -json, everything outside the "diagnostics" object is a function of
// the flags alone — identical for every -workers value and every run. The
// "diagnostics" object holds what is not: trial_pool_hits and
// adversary_reuses count sync.Pool hits, which depend on what earlier
// trials (and the garbage collector) left in the pools.
//
// Usage:
//
//	lbcmc -graph figure1a -f 1 -trials 50 -seed 7
//	lbcmc -graph circulant:8:1,2 -f 2 -faults 1 -algorithm 2 -trials 25
//	lbcmc -graph figure1a -trials 100 -workers 4 -json
//	lbcmc -graph figure1b -f 2 -trials 256 -batch 16
//	lbcmc -graph figure1b -f 2 -trials 64 -churn partition -churnstart 4 -json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"lbcast/internal/adversary"
	"lbcast/internal/cliutil"
	"lbcast/internal/eval"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
)

func main() {
	// SIGINT/SIGTERM cancel the sweep instead of killing the process: the
	// completed trials still flush (JSON marked "canceled"), so a long
	// interrupted sweep leaves a usable partial record.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lbcmc:", err)
		os.Exit(1)
	}
}

// mcJSON is the machine-readable sweep summary.
type mcJSON struct {
	Graph     string `json:"graph"`
	Algorithm string `json:"algorithm"`
	F         int    `json:"f"`
	Trials    int    `json:"trials"`
	Seed      int64  `json:"seed"`
	// Faults, FaultProb and Batch complete the reproduction record: the
	// first two affect per-trial derivation; Batch never affects
	// verdicts but is recorded for exact re-runs.
	Faults    int     `json:"faults,omitempty"`
	FaultProb float64 `json:"fault_prob,omitempty"`
	Batch     int     `json:"batch,omitempty"`
	// Churn* record the fault-injection profile (reproduction record) —
	// present only when a profile was active.
	ChurnKind   string  `json:"churn_kind,omitempty"`
	ChurnProb   float64 `json:"churn_prob,omitempty"`
	ChurnEvtCnt int     `json:"churn_profile_events,omitempty"`
	ChurnStart  int     `json:"churn_start,omitempty"`
	ChurnSpan   int     `json:"churn_span,omitempty"`
	// Per-verdict-class counts: OK + Degraded + ViolationCount = Trials.
	// Degraded counts failed trials excused because injection pushed the
	// world below the paper's thresholds.
	OK             int `json:"ok"`
	Degraded       int `json:"degraded,omitempty"`
	ViolationCount int `json:"violation_count,omitempty"`
	// The plan_* counters are the propagation-plan deltas accumulated
	// over the sweep (this process's global counters sampled before and
	// after): benign and masked compiles, sessions served by wholesale
	// (benign or masked) replay, sessions served by delta replay around
	// value-faulty slots, and fully dynamic sessions. ReplayHitRate is
	// (replay + delta) / (replay + delta + dynamic); present whenever any
	// phase-node flooding session was counted.
	PlanCompiles        int64    `json:"plan_compiles,omitempty"`
	PlanMaskedCompiles  int64    `json:"plan_masked_compiles,omitempty"`
	PlanReplaySessions  int64    `json:"plan_replay_sessions,omitempty"`
	PlanDeltaReplays    int64    `json:"plan_delta_replays,omitempty"`
	PlanDynamicSessions int64    `json:"plan_dynamic_sessions,omitempty"`
	ReplayHitRate       *float64 `json:"replay_hit_rate,omitempty"`
	// ChurnEvents / PlanInvalidations are the fault-injection deltas over
	// the sweep: topology events applied at round boundaries, and
	// replay-qualified runs whose compiled-plan replay a schedule cut back
	// to the taint frontier (or abandoned).
	ChurnEvents       int64 `json:"churn_events,omitempty"`
	PlanInvalidations int64 `json:"plan_invalidations,omitempty"`
	// Canceled marks a sweep interrupted by SIGINT/SIGTERM: OK and
	// Violations cover only the trials that completed before the signal.
	Canceled   bool              `json:"canceled,omitempty"`
	Violations []mcViolationJSON `json:"violations,omitempty"`
	// Diagnostics is kept apart from the result block above: its counters
	// depend on sync.Pool contents, hence on worker count, scheduling and
	// garbage collection, and nothing above it does.
	Diagnostics mcDiagnosticsJSON `json:"diagnostics"`
}

// mcDiagnosticsJSON holds the trial-scaffolding deltas over the sweep:
// scratch-pool hits (recycled RNG + input slab + fault-list bundles) and
// adversary instances re-armed through the strategy pools instead of
// constructed.
type mcDiagnosticsJSON struct {
	TrialPoolHits   int64 `json:"trial_pool_hits"`
	AdversaryReuses int64 `json:"adversary_reuses"`
}

type mcViolationJSON struct {
	Trial    int            `json:"trial"`
	Faulty   []graph.NodeID `json:"faulty"`
	Strategy string         `json:"strategy"`
	Outcome  eval.Outcome   `json:"outcome"`
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("lbcmc", flag.ContinueOnError)
	spec := fs.String("graph", "figure1a", "graph spec")
	f := fs.Int("f", 1, "fault bound f")
	faults := fs.Int("faults", 0, "planted faults per trial (default f)")
	algo := fs.Int("algorithm", 1, "algorithm: 1 (tight) or 2 (efficient)")
	trials := fs.Int("trials", 25, "number of trials")
	seed := fs.Int64("seed", 1, "sweep seed")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS); never affects results")
	batch := fs.Int("batch", 0, "batch size: run trials in multiplexed groups of this size through the multi-instance engine (0/1 = independent trials); never affects results")
	faultProb := fs.Float64("faultprob", 0, "probability a trial is adversarial (0 or 1 = every trial plants -faults faults)")
	churnKind := fs.String("churn", "", "fault-injection profile: churn, partition, or burst (empty = static worlds)")
	churnProb := fs.Float64("churnprob", 0, "probability a trial receives an injection schedule (0 or 1 = every trial)")
	churnEvents := fs.Int("churnevents", 0, "injected link flaps (churn) or crash victims (burst); default max(1, f)")
	churnStart := fs.Int("churnstart", 0, "first round injection events may land on")
	churnSpan := fs.Int("churnspan", 0, "injection window length in rounds (default one phase; burst: 0 = no recovery)")
	strategies := fs.String("strategies", "", "comma-separated adversary strategies to draw from (default silent,tamper,equivocate,forge; adaptive is opt-in)")
	jsonOut := fs.Bool("json", false, "emit JSON instead of text; all but its \"diagnostics\" object (pool-dependent counters) is identical for every -workers value")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := gen.ParseSpec(*spec)
	if err != nil {
		return err
	}
	var alg eval.Algorithm
	switch *algo {
	case 1:
		alg = eval.Algo1
	case 2:
		alg = eval.Algo2
	default:
		return fmt.Errorf("unknown algorithm %d", *algo)
	}
	var strategyList []string
	if *strategies != "" {
		strategyList = strings.Split(*strategies, ",")
	}
	planBefore := flood.ReadPlanStats()
	trialHitsBefore, _ := eval.ReadTrialPoolStats()
	reusesBefore := adversary.ReadRecycleStats()
	churnEvtBefore, invalBefore := eval.ReadChurnStats()
	res, err := eval.MonteCarloContext(ctx, eval.MonteCarloConfig{
		G:          g,
		F:          *f,
		Faults:     *faults,
		Algorithm:  alg,
		Trials:     *trials,
		Seed:       *seed,
		Workers:    *workers,
		Batch:      *batch,
		FaultProb:  *faultProb,
		Strategies: strategyList,
		ChurnProfile: eval.ChurnProfile{
			Kind:   *churnKind,
			Prob:   *churnProb,
			Events: *churnEvents,
			Start:  *churnStart,
			Span:   *churnSpan,
		},
	})
	// An interrupt is not a protocol failure: flush what completed, marked
	// canceled, and report the interruption through the exit status.
	canceled := err != nil && ctx.Err() != nil && errors.Is(err, context.Canceled)
	if err != nil && !canceled {
		return err
	}
	planAfter := flood.ReadPlanStats()
	trialHitsAfter, _ := eval.ReadTrialPoolStats()
	reusesAfter := adversary.ReadRecycleStats()
	churnEvtAfter, invalAfter := eval.ReadChurnStats()
	if *jsonOut {
		out := mcJSON{
			Graph:               g.String(),
			Algorithm:           alg.String(),
			F:                   *f,
			Trials:              res.Trials,
			Seed:                *seed,
			Faults:              *faults,
			FaultProb:           *faultProb,
			Batch:               *batch,
			ChurnKind:           *churnKind,
			ChurnProb:           *churnProb,
			ChurnEvtCnt:         *churnEvents,
			ChurnStart:          *churnStart,
			ChurnSpan:           *churnSpan,
			OK:                  res.OK,
			Degraded:            res.Degraded,
			ViolationCount:      len(res.Violations),
			PlanCompiles:        planAfter.Compiles - planBefore.Compiles,
			PlanMaskedCompiles:  planAfter.MaskedCompiles - planBefore.MaskedCompiles,
			PlanReplaySessions:  planAfter.ReplaySessions - planBefore.ReplaySessions,
			PlanDeltaReplays:    planAfter.DeltaReplaySessions - planBefore.DeltaReplaySessions,
			PlanDynamicSessions: planAfter.DynamicSessions - planBefore.DynamicSessions,
			ChurnEvents:         int64(churnEvtAfter - churnEvtBefore),
			PlanInvalidations:   int64(invalAfter - invalBefore),
			Canceled:            canceled,
			Diagnostics: mcDiagnosticsJSON{
				TrialPoolHits:   int64(trialHitsAfter - trialHitsBefore),
				AdversaryReuses: int64(reusesAfter - reusesBefore),
			},
		}
		served := out.PlanReplaySessions + out.PlanDeltaReplays
		if total := served + out.PlanDynamicSessions; total > 0 {
			rate := float64(served) / float64(total)
			out.ReplayHitRate = &rate
		}
		for _, v := range res.Violations {
			out.Violations = append(out.Violations, mcViolationJSON{
				Trial: v.Trial, Faulty: v.Faulty, Strategy: v.Strategy, Outcome: v.Outcome,
			})
		}
		if err := cliutil.WriteJSON(w, out); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "graph: %s\nalgorithm=%s f=%d trials=%d seed=%d\n", g, alg, *f, *trials, *seed)
		if canceled {
			fmt.Fprintf(w, "interrupted: consensus held in %d trials completed before the signal\n", res.OK)
		} else {
			fmt.Fprintf(w, "consensus held in %d/%d trials\n", res.OK, res.Trials)
		}
		if res.Degraded > 0 {
			fmt.Fprintf(w, "degraded connectivity excused %d trials (injection below thresholds)\n", res.Degraded)
		}
		for _, v := range res.Violations {
			fmt.Fprintf(w, "VIOLATION trial=%d faulty=%v strategy=%s agreement=%v validity=%v decisions=%v\n",
				v.Trial, v.Faulty, v.Strategy, v.Outcome.Agreement, v.Outcome.Validity, v.Outcome.Decisions)
		}
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("%d violations observed", len(res.Violations))
	}
	if canceled {
		return fmt.Errorf("interrupted after %d of %d trials", res.OK, res.Trials)
	}
	return nil
}
