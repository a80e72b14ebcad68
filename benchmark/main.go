// Command benchmark is the repository's benchmark: it runs seven seeded
// workloads against the public surfaces of the system (lbcast.Session, the
// Monte Carlo sweep, the lbcastd request handler), checks every output,
// prints every metric by name with its unit, and writes a machine-stamped
// result file. BENCHMARK.json at the repository root declares the command,
// the workloads and the metrics with their regression bounds; README.md in
// this directory defines them.
//
// End-to-end numbers come from a pass with tracing off. A second, traced
// pass produces the per-layer numbers from outside the program: spans the
// driver records around its calls, fields of the daemon's responses, and
// one probe process per layer (probes/<layer>) that calls that layer's
// functions on the workload's own inputs.
//
//	go run . [-workload name[,name]] [-seed n] [-seconds s] [-trace 0|1] [-out file]
//	go run . -smoke
//	go run . -compare A.json B.json [more...]
//
// BENCHMARK.json's command is run.sh, which builds this package into the
// checkout's .bench_build directory and runs it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"lbcast/benchmark/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errWorse is returned by -compare when a metric got worse.
var errWorse = errors.New("at least one metric is worse or more operations failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		names   = fs.String("workload", "", "comma-separated workloads to run (default: all seven)")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", nominalSeconds, "timed window per workload in seconds")
		trace   = fs.Int("trace", -1, "0: untraced pass only (end-to-end metrics); 1: traced pass only (per-layer metrics); default both")
		out     = fs.String("out", "", "write the machine-stamped result file here")
		smoke   = fs.Bool("smoke", false, "window scale 0.02, no probes: a quick correctness pass over every workload")
		compare = fs.Bool("compare", false, "compare result files: -compare A B [more...]; each side is a file, a comma-separated list or a directory, and every side is judged against the first")
		root    = fs.String("root", "", "repository root (default: the nearest directory above that holds BENCHMARK.json)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *root == "" {
		var err error
		if *root, err = findRoot(); err != nil {
			return err
		}
	}
	if *compare {
		return compareFiles(stdout, *root, fs.Args())
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	runtime.GOMAXPROCS(maxProcs())

	c := config{
		root: *root, seed: *seed, seconds: *seconds,
		untraced: *trace != 1, traced: *trace != 0,
		probes: true, log: stdout,
	}
	if *smoke {
		c.seconds, c.probes, c.partial = 0.02*nominalSeconds, false, true
	}
	if c.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	c.workloads = workload.Names
	if *names != "" {
		c.workloads = strings.Split(*names, ",")
	}

	file := resultFile{Env: stamp(c), Workloads: map[string]*workloadReport{}}
	fmt.Fprintf(stdout, "env: %d CPUs, GOMAXPROCS %d, %s %s/%s, commit %.12s dirty=%t, seed %d, window scale %.3g\n",
		file.Env.NumCPU, file.Env.GOMAXPROCS, file.Env.GoVersion, file.Env.GOOS, file.Env.GOARCH,
		file.Env.Commit, file.Env.Dirty, c.seed, file.Env.WindowScale)
	ctx := context.Background()
	correct := true
	for _, name := range c.workloads {
		rep, err := runWorkload(ctx, c, name)
		if err != nil {
			return err
		}
		file.Workloads[name] = rep
		printReport(stdout, name, rep)
		correct = correct && rep.Correct
	}
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			return err
		}
	}
	// The harness contract: one workload and one pass end with a single
	// JSON line of that pass's metrics.
	if len(c.workloads) == 1 && *trace >= 0 {
		if err := contractLine(stdout, file.Workloads[c.workloads[0]], *trace == 1); err != nil {
			return err
		}
	}
	if !correct {
		return fmt.Errorf("outputs were not correct; see the PROBLEM lines above")
	}
	return nil
}

// findRoot walks up from the working directory to the directory that holds
// BENCHMARK.json and the module the benchmark measures.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// contractLine prints the harness's result object: the gated end-to-end
// metrics of an untraced pass, or every per-layer metric of a traced one.
// The harness takes numbers only, so a per-layer value that is null in the
// result file (its probe failed) reads 0 here; bench.probe_errors counts
// them.
func contractLine(w io.Writer, rep *workloadReport, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	list, values := gatedMetrics, rep.Metrics
	if traced {
		list, values = layerMetrics, rep.Layers
	}
	for _, m := range list {
		v := float64(values[m.Name])
		if math.IsNaN(v) {
			v = 0
		}
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
