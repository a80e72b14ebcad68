package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// probeTimeout bounds one probe process.
const probeTimeout = 90 * time.Second

// probeOutput is the one JSON object a probe prints: its layer's metrics by
// full name, or why its self-check failed.
type probeOutput struct {
	Metrics map[string]float64 `json:"metrics"`
	Error   string             `json:"error"`
}

// runProbes builds each layer's probe and runs it as a child process on
// the workload's own inputs, one at a time, filling layers with what the
// probes report. A probe that does not build, crashes, times out or fails
// its self-check leaves its layer's metrics null; the returned map holds
// the reason per failed layer. Nothing here can fail the run.
func runProbes(ctx context.Context, c config, name string, layers map[string]num) map[string]string {
	errs := map[string]string{}
	bin := filepath.Join(outDir(c), "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		for _, layer := range probeLayers {
			errs[layer] = err.Error()
		}
		return errs
	}
	src := filepath.Join(c.root, "benchmark")
	declared := map[string]bool{}
	for _, m := range layerMetrics {
		declared[m.Name] = true
	}
	// One build of all probes is the fast path; if any of them is broken
	// (or gone: the pattern then builds the others and succeeds), build one
	// by one so that only the broken layer is lost.
	allBuilt := goBuild(ctx, src, bin+string(filepath.Separator), "./probes/...") == nil
	for _, layer := range probeLayers {
		exe := filepath.Join(bin, layer)
		if _, err := os.Stat(exe); !allBuilt || err != nil {
			if err := goBuild(ctx, src, exe, "./probes/"+layer); err != nil {
				errs[layer] = "build: " + err.Error()
				continue
			}
		}
		out, err := runProbe(ctx, exe, name, c.seed)
		if err != nil {
			errs[layer] = err.Error()
			continue
		}
		for k, v := range out.Metrics {
			// What the driver measured on its own traced run stands (the
			// server numbers of a serve workload).
			if declared[k] && strings.HasPrefix(k, layer+".") && math.IsNaN(float64(layers[k])) {
				layers[k] = num(v)
			}
		}
	}
	return errs
}

// goBuild builds pkg from dir into out.
func goBuild(ctx context.Context, dir, out, pkg string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%v: %s", err, firstLines(msg, 3))
	}
	return nil
}

// runProbe runs one probe binary and parses the JSON object it prints.
func runProbe(ctx context.Context, exe, name string, seed int64) (probeOutput, error) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", fmt.Sprint(seed))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.WaitDelay = time.Second
	var out probeOutput
	if err := cmd.Run(); err != nil {
		return out, fmt.Errorf("run: %v: %s", err, firstLines(stderr.Bytes(), 3))
	}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &out); err != nil {
		return out, fmt.Errorf("output: %v", err)
	}
	if out.Error != "" {
		return out, fmt.Errorf("self-check: %s", out.Error)
	}
	return out, nil
}

// firstLines returns at most n lines of b, joined.
func firstLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, " | ")
}
