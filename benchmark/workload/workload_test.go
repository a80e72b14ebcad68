package workload

import (
	"context"
	"strings"
	"testing"
)

// The generators are pure functions of the seed: equal seeds give equal
// request bodies, edge lists and sweep seeds; different seeds give
// different ones.
func TestGeneratorsArePureFunctionsOfTheSeed(t *testing.T) {
	for _, name := range Names {
		a, err := Generate(name, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Generate(name, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := Generate(name, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Inputs() != b.Inputs() {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		if a.Inputs() == c.Inputs() {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
		if a.CycleLen == 0 || strings.Count(a.Inputs(), "\n") != a.CycleLen {
			t.Errorf("%s: %d input lines for a cycle of %d", name, strings.Count(a.Inputs(), "\n"), a.CycleLen)
		}
		if len(a.Shapes) == 0 {
			t.Errorf("%s: no shapes for the probes", name)
		}
		for _, sh := range a.Shapes {
			if _, err := sh.Graph(); err != nil {
				t.Errorf("%s: shape %s: %v", name, sh.Label, err)
			}
			if len(sh.Inputs) != sh.N {
				t.Errorf("%s: shape %s has %d inputs for %d nodes", name, sh.Label, len(sh.Inputs), sh.N)
			}
		}
	}
}

// A cycle holds the same work whatever the seed: the same multiset of sweep
// seeds, the same classes of request in the same numbers.
func TestSeedDoesNotChangeTheWorkOfACycle(t *testing.T) {
	for _, name := range []string{"mc_benign", "mc_faulty", "mc_churn"} {
		sum := func(seed int64) (total int64) {
			in, err := Generate(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range in.MC.OpSeeds {
				total += s * s
			}
			return total
		}
		if sum(1) != sum(2) {
			t.Errorf("%s: seeds 1 and 2 draw different sweep pools", name)
		}
	}
	classes := func(seed int64) map[string]int {
		in, err := Generate("serve_mixed", seed)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for _, line := range strings.Split(strings.TrimSpace(in.Inputs()), "\n") {
			switch {
			case strings.Contains(line, "tamper"):
				counts["tamper"]++
			case strings.Contains(line, "silent"):
				counts["silent"]++
			case strings.Contains(line, `"algorithm":2`):
				counts["algo2"]++
			case strings.Contains(line, "harary"):
				counts["harary"]++
			case strings.Contains(line, `"inputs"`):
				counts["benign"]++
			default:
				counts["invalid"]++
			}
		}
		return counts
	}
	one, two := classes(1), classes(2)
	want := map[string]int{"tamper": 25, "silent": 25, "algo2": 25, "harary": 25, "benign": 100, "invalid": 4}
	for k, n := range want {
		if one[k] != n || two[k] != n {
			t.Errorf("serve_mixed: %d and %d %s requests, want %d", one[k], two[k], k, n)
		}
	}
}

// Every operation of every workload passes its own output check, and
// failures are reported as such.
func TestOperationsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs operations of every workload")
	}
	ctx := context.Background()
	for _, name := range Names {
		in, err := Prepare(name, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// One operation of a single caller, a handful of a serve cycle
		// (which includes invalid requests on serve_mixed).
		ops := 1
		if in.OpenRate > 0 {
			ops = 40
		}
		for i := 0; i < ops; i++ {
			r := in.Do(ctx, i)
			if r.Failed {
				t.Errorf("%s op %d failed: %s", name, i, r.Detail)
			}
			if r.Verdict == "" {
				t.Errorf("%s op %d has no verdict", name, i)
			}
		}
		if err := in.Close(); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
	}
	if _, err := Prepare("nosuch", 1); err == nil {
		t.Error("an unknown workload must be an error")
	}
}

// An answer that differs from the oracle is a failure, not a decision.
func TestOracleMismatchFails(t *testing.T) {
	in, err := Prepare("serve_benign", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	rq := serveReq{body: []byte(in.canon(0)), client: "t", status: 200, want: "a=true v=true t=true r=1/1 d="}
	if r := decide(in.Handler, &rq); !r.Failed || !strings.Contains(r.Detail, "oracle mismatch") || r.Decisions != 0 {
		t.Errorf("mismatch not reported: %+v", r)
	}
	rq = serveReq{body: []byte(in.canon(0)), client: "t", status: 400}
	if r := decide(in.Handler, &rq); !r.Failed || !strings.Contains(r.Detail, "status 200, want 400") {
		t.Errorf("unexpected status not reported: %+v", r)
	}
}
