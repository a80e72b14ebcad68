package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lbcast/benchmark/workload"
)

// repoRoot is the repository root as seen from this package's directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// BENCHMARK.json and the names compiled into the driver must agree: the
// harness reads one, the driver prints the other.
func TestBenchmarkJSONAgreesWithDriver(t *testing.T) {
	bj, err := loadBenchmarkJSON(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, the driver's nominal window is %d", bj.RunSeconds, nominalSeconds)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters (1..200 allowed)", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workload.Names) {
		t.Errorf("workloads = %v, the driver runs %v", names, workload.Names)
	}
	if !reflect.DeepEqual(bj.EndToEnd, gatedMetrics) {
		t.Errorf("end_to_end = %+v\nthe driver gates %+v", bj.EndToEnd, gatedMetrics)
	}
	if !reflect.DeepEqual(bj.PerLayer, layerMetrics) {
		t.Errorf("per_layer differs from the driver's layer metrics")
	}

	// The harness's own limits on names, units and bounds.
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]metric(nil), bj.EndToEnd...), bj.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: outside the harness's character limits", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, layer := range probeLayers {
		if _, err := os.Stat(filepath.Join("probes", layer, "main.go")); err != nil {
			t.Errorf("layer %s has no probe: %v", layer, err)
		}
	}
}

// The end-to-end driver may import the system under test only through the
// surfaces later refactors keep: lbcast, internal/check, the Monte Carlo
// entry point of internal/eval and the constructor of internal/server.
func TestDriverImports(t *testing.T) {
	allowedPkgs := map[string]bool{
		"lbcast":                    true,
		"lbcast/internal/check":     true,
		"lbcast/internal/eval":      true,
		"lbcast/internal/server":    true,
		"lbcast/benchmark/workload": true,
	}
	allowedNames := map[string]map[string]bool{
		"eval":   {"MonteCarloContext": true, "MonteCarloConfig": true, "ChurnProfile": true},
		"server": {"New": true, "Config": true},
	}
	fset := token.NewFileSet()
	for _, dir := range []string{".", "workload"} {
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for path, file := range pkg.Files {
				for _, imp := range file.Imports {
					p, _ := strconv.Unquote(imp.Path.Value)
					if strings.HasPrefix(p, "lbcast") && !allowedPkgs[p] {
						t.Errorf("%s imports %s, which the driver must not depend on", path, p)
					}
				}
				ast.Inspect(file, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil {
						if names, limited := allowedNames[id.Name]; limited && !names[sel.Sel.Name] {
							t.Errorf("%s uses %s.%s; only %v are allowed", path, id.Name, sel.Sel.Name, keys(names))
						}
					}
					return true
				})
			}
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// A smoke run (window scale 0.02, no probes) of all seven workloads must
// pass its correctness checks and print every declared metric exactly once
// per workload.
func TestSmokeRunEmitsEveryMetricOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	root := repoRoot(t)
	out := filepath.Join(t.TempDir(), "smoke.json")
	var stdout bytes.Buffer
	if err := run([]string{"-smoke", "-root", root, "-out", out}, &stdout); err != nil {
		t.Fatalf("smoke run: %v\n%s", err, stdout.String())
	}
	sections := strings.Split(stdout.String(), "\nworkload ")[1:]
	if len(sections) != len(workload.Names) {
		t.Fatalf("%d workload sections printed, want %d", len(sections), len(workload.Names))
	}
	var declared []string
	for _, m := range endToEndMetrics() {
		declared = append(declared, m.Name)
	}
	for _, m := range layerMetrics {
		declared = append(declared, m.Name)
	}
	for i, sec := range sections {
		if !strings.HasPrefix(sec, workload.Names[i]+" ") {
			t.Errorf("section %d is not %s", i, workload.Names[i])
		}
		counts := map[string]int{}
		for _, line := range strings.Split(sec, "\n") {
			if f := strings.Fields(line); len(f) >= 2 && strings.HasPrefix(line, "  ") {
				counts[f[0]]++
			}
		}
		for _, name := range declared {
			if counts[name] != 1 {
				t.Errorf("%s: metric %s printed %d times", workload.Names[i], name, counts[name])
			}
		}
	}
	// The result file carries the machine stamp and the same sections.
	files, err := loadSide(out)
	if err != nil {
		t.Fatal(err)
	}
	env := files[0].Env
	if env.NumCPU == 0 || env.GOMAXPROCS == 0 || env.GoVersion == "" || env.Commit == "" || env.Start == "" || env.WindowScale != 0.02 {
		t.Errorf("incomplete machine stamp: %+v", env)
	}
	for _, name := range workload.Names {
		rep := files[0].Workloads[name]
		if rep == nil || !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: report %+v", name, rep)
		}
	}
}
