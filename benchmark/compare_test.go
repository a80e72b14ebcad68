package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", tight, []float64{100, 100, 101, 99, 100}, "lower", 0.10, verdictOK},
		{"worse beyond bound", tight, []float64{120, 121, 119, 120, 120}, "lower", 0.10, verdictWorse},
		{"worse within bound", tight, []float64{105, 106, 104, 105, 105}, "lower", 0.10, verdictOK},
		{"better", tight, []float64{80, 81, 79, 80, 80}, "lower", 0.10, verdictOK},
		{"throughput drop", tight, []float64{80, 81, 79, 80, 80}, "higher", 0.10, verdictWorse},
		{"throughput gain", tight, []float64{120, 121, 119, 120, 120}, "higher", 0.10, verdictOK},
		// Spread wider than the bound and overlapping runs: the medians
		// cannot decide either way.
		{"noisy, looks fine", []float64{100, 80, 120, 90, 110}, []float64{102, 85, 125, 88, 111}, "lower", 0.10, verdictUnresolved},
		{"noisy, looks worse", []float64{100, 80, 120, 90, 110}, []float64{115, 95, 140, 100, 130}, "lower", 0.10, verdictUnresolved},
		// Noisy, but every run of B beats every run of A: no spread
		// explains that.
		{"noisy but separated better", []float64{100, 80, 120, 90, 110}, []float64{50, 40, 60, 45, 55}, "lower", 0.10, verdictOK},
		{"noisy but separated worse", []float64{100, 80, 120, 90, 110}, []float64{200, 160, 240, 180, 220}, "lower", 0.10, verdictWorse},
		// failed_share: the bound is absolute, any rise is worse.
		{"failures appear", []float64{0, 0, 0}, []float64{0, 0.01, 0.01}, "lower", 0, verdictWorse},
		{"no failures", []float64{0, 0, 0}, []float64{0, 0, 0}, "lower", 0, verdictOK},
		{"single runs", []float64{100}, []float64{109}, "lower", 0.10, verdictOK},
	} {
		if got, _ := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// writeResult writes a one-workload result file and returns its path.
func writeResult(t *testing.T, dir, name string, env envStamp, dps, failed float64) string {
	t.Helper()
	f := resultFile{Env: env, Workloads: map[string]*workloadReport{
		"mc_benign": {Metrics: map[string]num{"decisions_per_s": num(dps), "failed_share": num(failed)}, Correct: true},
	}}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	env := envStamp{NumCPU: 2, GOMAXPROCS: 2, WindowScale: 1}
	a := writeResult(t, dir, "a.json", env, 1000, 0)
	same := writeResult(t, dir, "same.json", env, 990, 0)
	slow := writeResult(t, dir, "slow.json", env, 500, 0)
	failing := writeResult(t, dir, "failing.json", env, 1000, 0.02)
	other := env
	other.NumCPU = 8
	elsewhere := writeResult(t, dir, "elsewhere.json", other, 1000, 0)

	var out bytes.Buffer
	if err := compareFiles(&out, dir, []string{a, same}); err != nil {
		t.Errorf("equal runs: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "decisions_per_s") || !strings.Contains(out.String(), verdictOK) {
		t.Errorf("comparison output lacks the metric row:\n%s", out.String())
	}
	if err := compareFiles(&out, dir, []string{a, slow}); !errors.Is(err, errWorse) {
		t.Errorf("halved throughput: got %v, want errWorse", err)
	}
	if err := compareFiles(&out, dir, []string{a, failing}); !errors.Is(err, errWorse) {
		t.Errorf("higher failed_share: got %v, want errWorse", err)
	}
	if err := compareFiles(&out, dir, []string{a, elsewhere}); err == nil || errors.Is(err, errWorse) {
		t.Errorf("different CPU counts must be refused, got %v", err)
	}
	// A side may be a comma-separated list; a metric only one side has is
	// unresolved, not an error.
	if err := compareFiles(&out, dir, []string{a + "," + same, same}); err != nil {
		t.Errorf("list side: %v", err)
	}
}
