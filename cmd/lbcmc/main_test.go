package main

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestRunMCCleanSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-graph", "figure1a", "-f", "1", "-trials", "10", "-seed", "5"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "consensus held in 10/10 trials") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestRunMCAlgorithm2(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-graph", "figure1a", "-f", "1", "-algorithm", "2", "-trials", "6"}, &buf); err != nil {
		t.Fatal(err)
	}
}

// resultBlock decodes a -json summary and drops its "diagnostics" object:
// what remains is promised to depend on the flags alone.
func resultBlock(t *testing.T, out []byte) map[string]interface{} {
	t.Helper()
	var decoded map[string]interface{}
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatalf("json: %v\n%s", err, out)
	}
	if _, ok := decoded["diagnostics"].(map[string]interface{}); !ok {
		t.Fatalf("summary has no diagnostics object:\n%s", out)
	}
	delete(decoded, "diagnostics")
	return decoded
}

func TestRunMCJSONDeterministicAcrossWorkers(t *testing.T) {
	var results []map[string]interface{}
	for _, workers := range []string{"1", "2", "6"} {
		var buf bytes.Buffer
		if err := run(context.Background(), []string{"-graph", "figure1a", "-f", "1", "-trials", "12",
			"-seed", "9", "-workers", workers, "-json"}, &buf); err != nil {
			t.Fatal(err)
		}
		results = append(results, resultBlock(t, buf.Bytes()))
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("worker count changed the results:\n%v\nvs\n%v", results[0], results[i])
		}
	}
	if results[0]["ok"] != float64(12) {
		t.Fatalf("decoded = %v", results[0])
	}
}

// TestRunMCInterrupted pins the signal path: a canceled context still
// flushes JSON (marked canceled) and reports the interruption as an error.
func TestRunMCInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := run(ctx, []string{"-graph", "figure1a", "-f", "1", "-trials", "8", "-json"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want interruption report", err)
	}
	var decoded struct {
		Canceled bool `json:"canceled"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("no JSON flushed on interrupt: %v\n%s", err, buf.String())
	}
	if !decoded.Canceled {
		t.Fatalf("partial output not marked canceled:\n%s", buf.String())
	}
}

func TestRunMCErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-graph", "bogus"}, &buf); err == nil {
		t.Fatal("bad graph accepted")
	}
	if err := run(context.Background(), []string{"-graph", "figure1a", "-algorithm", "7"}, &buf); err == nil {
		t.Fatal("bad algorithm accepted")
	}
}

// TestRunMCJSONPlanCounters pins the sweep summary's plan-counter schema:
// a fault-heavy sweep must surface masked compiles, delta replays, and a
// near-1 replay hit rate under the exact keys downstream tooling greps.
func TestRunMCJSONPlanCounters(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-graph", "figure1b", "-f", "2", "-trials", "24",
		"-seed", "17", "-faultprob", "0.5", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("json: %v\n%s", err, buf.String())
	}
	// plan_dynamic_sessions is omitted here by design: with masked and
	// delta replay covering every fault pattern, the sweep records zero
	// dynamic sessions and omitempty drops the key.
	for _, key := range []string{
		"plan_compiles", "plan_masked_compiles", "plan_replay_sessions",
		"plan_delta_replays", "replay_hit_rate",
	} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("summary missing %q:\n%s", key, buf.String())
		}
	}
	if rate, ok := decoded["replay_hit_rate"].(float64); !ok || rate < 0.95 {
		t.Errorf("replay_hit_rate = %v, want >= 0.95", decoded["replay_hit_rate"])
	}
	// The pool-dependent counters live in the diagnostics object and
	// nowhere else.
	diag, _ := decoded["diagnostics"].(map[string]interface{})
	for _, key := range []string{"trial_pool_hits", "adversary_reuses"} {
		if _, ok := diag[key]; !ok {
			t.Errorf("diagnostics missing %q:\n%s", key, buf.String())
		}
		if _, ok := decoded[key]; ok {
			t.Errorf("%q is in the result block:\n%s", key, buf.String())
		}
	}
}

// TestRunMCJSONChurnSchema pins the fault-injection sweep schema: the
// profile echo (reproduction record), the per-verdict-class counts, and
// the counter deltas must surface under the exact keys downstream tooling
// greps, and the verdict classes must sum to the trial count.
func TestRunMCJSONChurnSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-graph", "figure1b", "-f", "2", "-trials", "32",
		"-seed", "1", "-churn", "burst", "-churnevents", "4", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("json: %v\n%s", err, buf.String())
	}
	for _, key := range []string{"churn_kind", "churn_profile_events", "degraded", "churn_events", "plan_invalidations"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("summary missing %q:\n%s", key, buf.String())
		}
	}
	if decoded["churn_kind"] != "burst" {
		t.Errorf("churn_kind = %v, want burst", decoded["churn_kind"])
	}
	ok, _ := decoded["ok"].(float64)
	degraded, _ := decoded["degraded"].(float64)
	violations, _ := decoded["violation_count"].(float64)
	trials, _ := decoded["trials"].(float64)
	if ok+degraded+violations != trials {
		t.Errorf("verdict classes do not sum to trials: ok=%v degraded=%v violations=%v trials=%v",
			ok, degraded, violations, trials)
	}
	if degraded == 0 {
		t.Error("engineered sub-threshold sweep recorded no degraded trials")
	}
	if ev, _ := decoded["churn_events"].(float64); ev == 0 {
		t.Error("churn_events delta not recorded")
	}
	if inv, _ := decoded["plan_invalidations"].(float64); inv == 0 {
		t.Error("plan_invalidations delta not recorded")
	}
}

// TestRunMCChurnDeterministicAcrossWorkers: the injected sweep's verdict
// stream — and every churn field derived from it — must be identical for
// every worker count (the pool-warmth counters sit in the diagnostics
// object, outside the compared result block).
func TestRunMCChurnDeterministicAcrossWorkers(t *testing.T) {
	outputs := make([]map[string]interface{}, 0, 2)
	for _, workers := range []string{"1", "4"} {
		var buf bytes.Buffer
		if err := run(context.Background(), []string{"-graph", "figure1b", "-f", "2", "-trials", "16",
			"-seed", "9", "-churn", "churn", "-churnprob", "0.5", "-churnstart", "4",
			"-workers", workers, "-json"}, &buf); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, resultBlock(t, buf.Bytes()))
	}
	if !reflect.DeepEqual(outputs[0], outputs[1]) {
		t.Fatalf("worker count changed the injected sweep:\n%v\nvs\n%v", outputs[0], outputs[1])
	}
}

func TestRunMCChurnErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-graph", "figure1a", "-f", "1", "-trials", "2",
		"-churn", "meteor"}, &buf); err == nil {
		t.Fatal("bad churn kind accepted")
	}
	if err := run(context.Background(), []string{"-graph", "figure1a", "-f", "1", "-trials", "2",
		"-churn", "churn", "-churnprob", "1.5"}, &buf); err == nil {
		t.Fatal("out-of-range churn probability accepted")
	}
	if err := run(context.Background(), []string{"-graph", "figure1a", "-f", "1", "-trials", "4",
		"-churn", "churn", "-batch", "4"}, &buf); err == nil {
		t.Fatal("churn with batched trials accepted")
	}
}
