// Command lbcsim runs a single Byzantine consensus execution on a graph
// and reports decisions, consensus properties, and costs. Runs terminate
// early once every honest node has decided; pass -full-budget for the
// paper's worst-case round accounting.
//
// Usage:
//
//	lbcsim -graph figure1a -f 1 -algorithm 1 -inputs 01011 -faulty 2 -strategy tamper
//	lbcsim -graph circulant:8:1,2 -f 2 -algorithm 2 -inputs 01010101 -faulty 0,4 -strategy silent
//	lbcsim -graph figure1a -full-budget          # always run the full round budget
//	lbcsim -graph figure1a -rounds 12            # override the round budget
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"lbcast/internal/adversary"
	"lbcast/internal/core"
	"lbcast/internal/eval"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lbcsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("lbcsim", flag.ContinueOnError)
	spec := fs.String("graph", "figure1a", "graph spec")
	f := fs.Int("f", 1, "fault bound f")
	t := fs.Int("t", 0, "equivocation bound t (algorithm 3)")
	algo := fs.Int("algorithm", 1, "algorithm: 1 (tight), 2 (efficient), 3 (hybrid)")
	inputsFlag := fs.String("inputs", "", "binary input string, one digit per node (default alternating)")
	faultyFlag := fs.String("faulty", "", "comma-separated faulty node ids")
	strategy := fs.String("strategy", "silent", "fault strategy: silent, tamper, equivocate, forge")
	seed := fs.Int64("seed", 1, "adversary seed")
	tracePath := fs.String("trace", "", "write a transmission trace to this file (.json for JSON, else text)")
	rounds := fs.Int("rounds", 0, "override the round budget (0 = algorithm default)")
	fullBudget := fs.Bool("full-budget", false, "disable early termination; always run the full round budget")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := gen.ParseSpec(*spec)
	if err != nil {
		return err
	}
	inputs, err := parseInputs(*inputsFlag, g.N())
	if err != nil {
		return err
	}
	faulty, err := parseNodes(*faultyFlag)
	if err != nil {
		return err
	}
	byz := make(map[graph.NodeID]sim.Node, len(faulty))
	equiv := graph.NewSet()
	phaseLen := core.PhaseRounds(g.N())
	for _, u := range faulty {
		if byz[u], err = adversary.New(*strategy, g, u, phaseLen, *seed); err != nil {
			return err
		}
		if *strategy == "equivocate" {
			equiv.Add(u)
		}
	}

	var alg eval.Algorithm
	model := sim.LocalBroadcast
	switch *algo {
	case 1:
		alg = eval.Algo1
	case 2:
		alg = eval.Algo2
	case 3:
		alg = eval.Algo3
		model = sim.Hybrid
	default:
		return fmt.Errorf("unknown algorithm %d", *algo)
	}

	var rec *sim.Recorder
	spec2 := eval.Spec{
		G:            g,
		F:            *f,
		T:            *t,
		Algorithm:    alg,
		Inputs:       inputs,
		Byzantine:    byz,
		Model:        model,
		Equivocators: equiv,
		Rounds:       *rounds,
		FullBudget:   *fullBudget,
	}
	if *tracePath != "" {
		rec = &sim.Recorder{}
		spec2.Observer = rec
	}
	session, err := eval.NewSession(spec2)
	if err != nil {
		return err
	}
	res, err := session.Run(context.Background())
	if err != nil {
		return err
	}
	if rec != nil {
		if err := writeTrace(rec, *tracePath); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: %d transmissions written to %s\n", rec.Len(), *tracePath)
	}

	fmt.Fprintf(w, "graph: %s\n", g)
	fmt.Fprintf(w, "algorithm: %s  f=%d t=%d  faulty=%v strategy=%s\n", alg, *f, *t, faulty, *strategy)
	fmt.Fprintf(w, "rounds=%d/%d transmissions=%d deliveries=%d\n",
		res.Rounds, res.Budget, res.Metrics.Transmissions, res.Metrics.Deliveries)
	fmt.Fprintln(w, "decisions (honest nodes):")
	for _, u := range g.Nodes() {
		if v, ok := res.Decisions[u]; ok {
			fmt.Fprintf(w, "  node %d: input=%s decided=%s\n", u, inputs[u], v)
		}
	}
	fmt.Fprintf(w, "agreement=%v validity=%v termination=%v\n", res.Agreement, res.Validity, res.Termination)
	if !res.OK() {
		return fmt.Errorf("consensus properties violated (check the conditions with lbccheck)")
	}
	return nil
}

func writeTrace(rec *sim.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		return rec.WriteJSON(f)
	}
	return rec.WriteText(f)
}

func parseInputs(s string, n int) (map[graph.NodeID]sim.Value, error) {
	m := make(map[graph.NodeID]sim.Value, n)
	if s == "" {
		for i := 0; i < n; i++ {
			m[graph.NodeID(i)] = sim.Value(i % 2)
		}
		return m, nil
	}
	if len(s) != n {
		return nil, fmt.Errorf("inputs %q has %d digits for %d nodes", s, len(s), n)
	}
	for i, c := range s {
		switch c {
		case '0':
			m[graph.NodeID(i)] = sim.Zero
		case '1':
			m[graph.NodeID(i)] = sim.One
		default:
			return nil, fmt.Errorf("inputs %q: bad digit %q", s, c)
		}
	}
	return m, nil
}

func parseNodes(s string) ([]graph.NodeID, error) {
	if s == "" {
		return nil, nil
	}
	var out []graph.NodeID
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("faulty list %q: %w", s, err)
		}
		out = append(out, graph.NodeID(v))
	}
	return out, nil
}
