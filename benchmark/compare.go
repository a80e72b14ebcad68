package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"lbcast/benchmark/workload"
)

// benchmarkJSON is the shape of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadBenchmarkJSON(root string) (benchmarkJSON, error) {
	var b benchmarkJSON
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return b, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return b, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return b, nil
}

// Verdicts of one compared metric.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares side B's runs of one metric against side A's. A metric is
// worse when B's median is worse than A's by more than bound (a share of
// A's median; a bound of 0 means any worsening counts). When the
// run-to-run spread of either side is wider than the bound the medians
// cannot carry that conclusion: the verdict is unresolved, unless every
// run of one side beats every run of the other, which no spread explains.
// An absolute bound (0) admits no noise: the medians decide.
func judge(a, b []float64, better string, bound float64) (verdict string, worseBy float64) {
	medA, medB := median(a), median(b)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	switch {
	case medA != 0:
		worseBy = sign * (medB - medA) / math.Abs(medA)
	case sign*(medB-medA) > 0:
		worseBy = math.Inf(1)
	case sign*(medB-medA) < 0:
		worseBy = math.Inf(-1)
	}
	wide := false
	for _, side := range [][]float64{a, b} {
		if len(side) >= 2 && bound > 0 {
			if s := spread(side); !math.IsNaN(s) && s > bound {
				wide = true
			}
		}
	}
	// separated reports whether every run of x is worse than every run of y.
	separated := func(x, y []float64) bool {
		for _, vx := range x {
			for _, vy := range y {
				if sign*(vx-vy) <= 0 {
					return false
				}
			}
		}
		return true
	}
	if worseBy > bound {
		if !wide || separated(b, a) {
			return verdictWorse, worseBy
		}
		return verdictUnresolved, worseBy
	}
	if !wide || separated(a, b) {
		return verdictOK, worseBy
	}
	return verdictUnresolved, worseBy
}

// loadSide reads one side of a comparison: a result file, a
// comma-separated list of them, or a directory holding them.
func loadSide(arg string) ([]resultFile, error) {
	var paths []string
	for _, p := range strings.Split(arg, ",") {
		if st, err := os.Stat(p); err == nil && st.IsDir() {
			found, err := filepath.Glob(filepath.Join(p, "*.json"))
			if err != nil {
				return nil, err
			}
			sort.Strings(found)
			paths = append(paths, found...)
			continue
		}
		paths = append(paths, p)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files in %q", arg)
	}
	files := make([]resultFile, len(paths))
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(raw, &files[i]); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if files[i].Workloads == nil {
			return nil, fmt.Errorf("%s: not a result file (no workloads)", p)
		}
	}
	return files, nil
}

// sameMachine refuses to compare runs whose machine stamps differ where a
// difference changes every number.
func sameMachine(files []resultFile) error {
	ref := files[0].Env
	for _, f := range files[1:] {
		e := f.Env
		if e.NumCPU != ref.NumCPU || e.GOMAXPROCS != ref.GOMAXPROCS || e.WindowScale != ref.WindowScale {
			return fmt.Errorf("result files are not comparable: %d CPUs / GOMAXPROCS %d / window scale %g against %d / %d / %g",
				ref.NumCPU, ref.GOMAXPROCS, ref.WindowScale, e.NumCPU, e.GOMAXPROCS, e.WindowScale)
		}
	}
	return nil
}

// series collects one metric of one workload over a side's runs, skipping
// runs where it is null.
func series(files []resultFile, wl, name string) []float64 {
	var out []float64
	for _, f := range files {
		rep := f.Workloads[wl]
		if rep == nil {
			continue
		}
		if v, ok := rep.Metrics[name]; ok && !math.IsNaN(float64(v)) {
			out = append(out, float64(v))
		}
	}
	return out
}

// compareFiles prints, for every workload and end-to-end metric, each
// side's median and quartiles, the bound, how much worse side B's median
// is (as a share of side A's, which is printed), and the verdict. Every
// side after the first is compared against the first.
func compareFiles(w io.Writer, root string, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("-compare needs at least two sides: files, comma-separated lists, or directories")
	}
	bounds := map[string]float64{}
	for _, m := range endToEndMetrics() {
		bounds[m.Name] = m.Bound
	}
	if bj, err := loadBenchmarkJSON(root); err == nil {
		for _, m := range bj.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	sides := make([][]resultFile, len(args))
	var all []resultFile
	for i, a := range args {
		var err error
		if sides[i], err = loadSide(a); err != nil {
			return err
		}
		all = append(all, sides[i]...)
	}
	if err := sameMachine(all); err != nil {
		return err
	}
	worse := false
	for i := 1; i < len(sides); i++ {
		a, b := sides[0], sides[i]
		fmt.Fprintf(w, "A = %s (%d runs)   B = %s (%d runs)\n", args[0], len(a), args[i], len(b))
		fmt.Fprintf(w, "%-14s %-20s %34s %34s %7s %9s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "bound", "B worse", "verdict")
		for _, wl := range workload.Names {
			for _, m := range endToEndMetrics() {
				va, vb := series(a, wl, m.Name), series(b, wl, m.Name)
				if len(va) == 0 && len(vb) == 0 {
					continue
				}
				if len(va) == 0 || len(vb) == 0 {
					fmt.Fprintf(w, "%-14s %-20s %34s %34s %7s %9s  %s\n", wl, m.Name, describe(va), describe(vb), "", "", verdictUnresolved+" (missing on one side)")
					continue
				}
				verdict, by := judge(va, vb, m.Better, bounds[m.Name])
				if verdict == verdictWorse {
					worse = true
				}
				fmt.Fprintf(w, "%-14s %-20s %34s %34s %6.1f%% %+8.2f%%  %s\n", wl, m.Name, describe(va), describe(vb), 100*bounds[m.Name], 100*by, verdict)
			}
		}
	}
	if worse {
		return errWorse
	}
	return nil
}

// describe renders a side's median and quartiles.
func describe(v []float64) string {
	if len(v) == 0 {
		return "null"
	}
	if len(v) == 1 {
		return fmt.Sprintf("%.5g (n=1)", v[0])
	}
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q2, q1, q3)
}
