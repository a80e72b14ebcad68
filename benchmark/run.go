package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// num is a measured value that encodes NaN (not applicable, or not
// measured) as JSON null.
type num float64

func (n num) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(n)) || math.IsInf(float64(n), 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(n))
}

func (n *num) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*n = num(math.NaN())
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*n = num(f)
	return nil
}

// envStamp says where and on what a result file was measured.
type envStamp struct {
	NumCPU      int     `json:"num_cpu"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	Commit      string  `json:"commit"`
	Dirty       bool    `json:"dirty"`
	Seed        int64   `json:"seed"`
	WindowScale float64 `json:"window_scale"`
	Seconds     float64 `json:"seconds"`
	Start       string  `json:"start"`
}

// workloadReport is one workload's section of a result file.
type workloadReport struct {
	// Metrics are the end-to-end numbers of the untraced pass.
	Metrics map[string]num `json:"metrics"`
	// Samples is the sample count behind each percentile.
	Samples map[string]int `json:"samples"`
	// Layers are the per-layer numbers of the traced pass; null where a
	// layer does not apply to the workload or its probe failed.
	Layers map[string]num `json:"layers,omitempty"`
	// ProbeErrors explains every layer whose probe failed.
	ProbeErrors map[string]string `json:"probe_errors,omitempty"`
	// Procs is the GOMAXPROCS the workload ran under: 1 for a single
	// caller, the stamp's value for a serve workload.
	Procs     int    `json:"gomaxprocs"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Correct   bool   `json:"correct"`
	Digest    string `json:"result_digest"`
	// Problems lists everything that made the workload incorrect.
	Problems []string `json:"problems,omitempty"`
}

// resultFile is the stamped envelope -out writes.
type resultFile struct {
	Env       envStamp                   `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// config is one invocation's settings.
type config struct {
	root      string // repository root (the directory holding BENCHMARK.json)
	workloads []string
	seed      int64
	seconds   float64
	// untraced and traced select the passes.
	untraced, traced bool
	// probes runs the per-layer probe processes in the traced pass.
	probes bool
	// partial lets single-caller windows stop mid-cycle (smoke runs).
	partial bool
	log     io.Writer
}

// gitStamp reads the commit and dirty flag; a checkout that is not a git
// repository is stamped "unknown".
func gitStamp(root string) (string, bool) {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, _ := exec.Command("git", "-C", root, "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), len(strings.TrimSpace(string(status))) > 0
}

func stamp(c config) envStamp {
	commit, dirty := gitStamp(c.root)
	return envStamp{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Commit:      commit,
		Dirty:       dirty,
		Seed:        c.seed,
		WindowScale: c.seconds / nominalSeconds,
		Seconds:     c.seconds,
		Start:       time.Now().UTC().Format(time.RFC3339),
	}
}

// runWorkload measures one workload: the untraced pass gives the
// end-to-end metrics; the traced pass gives the per-layer ones.
func runWorkload(ctx context.Context, c config, name string) (*workloadReport, error) {
	rep := &workloadReport{
		Metrics: map[string]num{}, Samples: map[string]int{}, Correct: true,
	}
	problem := func(format string, args ...any) {
		rep.Correct = false
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}
	check := func(pass string, res passResult) {
		if res.failed > 0 {
			problem("%s pass: %d of %d operations failed; first: %s", pass, res.failed, res.attempted, res.firstFail)
		}
		if res.invalid != "" {
			problem("%s pass: %s", pass, res.invalid)
		}
		// A smoke run warms up differently, so stateful adversaries are
		// elsewhere in their streams: its digest is not the pinned one.
		if want, ok := pinnedDigests[name]; ok && c.seed == 1 && !c.partial && res.digestComplete && res.digest != want {
			problem("%s pass: result digest %s differs from the pinned %s: behaviour changed", pass, res.digest, want)
		}
	}

	var untraced passResult
	if c.untraced {
		var err error
		untraced, err = measure(ctx, name, c.seed, true, passOpts{seconds: c.seconds, partial: c.partial})
		if err != nil {
			return nil, err
		}
		check("untraced", untraced)
		for _, m := range endToEndMetrics() {
			rep.Metrics[m.Name] = num(untraced.values[m.Name])
		}
		rep.Samples = untraced.samples
		rep.Attempted, rep.Failed, rep.Digest = untraced.attempted, untraced.failed, untraced.digest
		rep.Procs = untraced.procs
	}
	if !c.traced {
		return rep, nil
	}

	// The traced pass: a reference segment without tracing and a traced
	// segment, each on a fresh set-up and a quarter of the window, then the
	// probes; together they take about as long as the untraced pass.
	quarter := passOpts{seconds: c.seconds / 4, partial: c.partial}
	ref, err := measure(ctx, name, c.seed, false, quarter)
	if err != nil {
		return nil, err
	}
	quarter.traced = true
	tr, err := measure(ctx, name, c.seed, false, quarter)
	if err != nil {
		return nil, err
	}
	check("reference", ref)
	check("traced", tr)
	if ref.digestComplete && tr.digestComplete && ref.digest != tr.digest {
		problem("result digest differs between the reference segment (%s) and the traced one (%s)", ref.digest, tr.digest)
	}
	if c.untraced && untraced.digestComplete && tr.digestComplete && untraced.digest != tr.digest {
		problem("result digest differs between the untraced pass (%s) and the traced one (%s)", untraced.digest, tr.digest)
	}
	if !c.untraced {
		rep.Attempted, rep.Failed, rep.Digest = ref.attempted+tr.attempted, ref.failed+tr.failed, tr.digest
		rep.Procs = tr.procs
	}
	rep.Layers = map[string]num{}
	for _, m := range layerMetrics {
		rep.Layers[m.Name] = num(math.NaN())
	}
	for k, v := range tr.layers {
		rep.Layers[k] = num(v)
	}
	if _, open := tr.layers["bench.late_p99_us"]; !open {
		rep.Layers["bench.late_p99_us"] = num(idleLateness())
	}
	rep.Layers["bench.trace_overhead_share"] = num(1 - tr.values["decisions_per_s"]/ref.values["decisions_per_s"])
	rep.Layers["bench.window_scale"] = num(c.seconds / nominalSeconds)
	if err := writeSpans(c, name, tr.spans); err != nil {
		fmt.Fprintf(c.log, "  spans not written: %v\n", err)
	}
	if c.probes {
		rep.ProbeErrors = runProbes(ctx, c, name, rep.Layers)
	} else {
		rep.ProbeErrors = map[string]string{}
		for _, layer := range probeLayers {
			rep.ProbeErrors[layer] = "probes not run"
		}
	}
	rep.Layers["bench.probe_errors"] = num(len(rep.ProbeErrors))
	return rep, nil
}

// outDir returns the git-ignored directory traces and probe binaries go to.
func outDir(c config) string { return filepath.Join(c.root, "benchmark", "out") }

// writeSpans writes the traced segment's spans when the run ends.
func writeSpans(c config, name string, spans []span) error {
	if err := os.MkdirAll(outDir(c), 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir(c), fmt.Sprintf("spans-%s-seed%d.json", name, c.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReport prints every metric by name with its unit.
func printReport(w io.Writer, name string, rep *workloadReport) {
	fmt.Fprintf(w, "workload %s  gomaxprocs=%d attempted=%d failed=%d correct=%t digest=%.16s\n", name, rep.Procs, rep.Attempted, rep.Failed, rep.Correct, rep.Digest)
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	for _, m := range endToEndMetrics() {
		v, ok := rep.Metrics[m.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-28s %14s %-12s", m.Name, formatNum(v), m.Unit)
		if n, ok := rep.Samples[m.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	if rep.Layers == nil {
		return
	}
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "  %-36s %14s %s\n", m.Name, formatNum(rep.Layers[m.Name]), m.Unit)
	}
	for layer, e := range rep.ProbeErrors {
		fmt.Fprintf(w, "  probe_error %s: %s\n", layer, e)
	}
}

func formatNum(v num) string {
	if math.IsNaN(float64(v)) {
		return "null"
	}
	return fmt.Sprintf("%.6g", float64(v))
}
