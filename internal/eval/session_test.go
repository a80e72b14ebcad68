package eval

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	s, err := NewSession(Spec{G: gen.Figure1a(), F: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := s.Spec()
	if spec.Algorithm != Algo1 {
		t.Fatalf("algorithm defaulted to %s", spec.Algorithm)
	}
	if spec.Model != sim.LocalBroadcast {
		t.Fatalf("model defaulted to %s", spec.Model)
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	g := gen.Figure1a()
	cases := []struct {
		name string
		spec Spec
	}{
		{"nil graph", Spec{}},
		{"negative f", Spec{G: g, F: -1}},
		{"negative t", Spec{G: g, F: 1, T: -2}},
		{"t > f", Spec{G: g, F: 1, T: 2}},
		{"bad algorithm", Spec{G: g, Algorithm: Algorithm(7)}},
		{"bad model", Spec{G: g, Model: sim.Model(7)}},
		{"negative rounds", Spec{G: g, Rounds: -3}},
		{"input out of range", Spec{G: g, Inputs: map[graph.NodeID]sim.Value{8: 1}}},
		{"byzantine out of range", Spec{G: g, Byzantine: map[graph.NodeID]sim.Node{-1: &adversary.SilentNode{Me: -1}}}},
		{"nil byzantine", Spec{G: g, Byzantine: map[graph.NodeID]sim.Node{1: nil}}},
		{"equivocator out of range", Spec{G: g, Equivocators: graph.NewSet(9)}},
		{"more nodes than a set holds", Spec{G: graph.New(graph.MaxNodes + 1)}},
	}
	for _, c := range cases {
		if _, err := NewSession(c.spec); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if _, err := Run(c.spec); err == nil {
			t.Fatalf("%s: Run accepted", c.name)
		}
	}
}

func TestSessionReuseMatchesOneShotRun(t *testing.T) {
	spec := Spec{
		G: gen.Figure1a(), F: 1, Algorithm: Algo1,
		Inputs:    inputs(0, 1, 0, 1, 0),
		Byzantine: map[graph.NodeID]sim.Node{4: &adversary.SilentNode{Me: 4}},
	}
	s, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
		t.Fatalf("runs diverge:\na = %+v\nb = %+v\nc = %+v", a, b, c)
	}
}

func TestSessionContextCancellation(t *testing.T) {
	s, err := NewSession(Spec{
		G: gen.Figure1a(), F: 1,
		Inputs:     inputs(0, 1, 0, 1, 0),
		FullBudget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEarlyTerminationOutcomeFields: an early-terminated run reports both
// executed rounds and the (larger) budget, and the metrics agree.
func TestEarlyTerminationOutcomeFields(t *testing.T) {
	out, err := Run(Spec{
		G: gen.Figure1a(), F: 1, Algorithm: Algo1,
		Inputs: inputs(1, 1, 1, 1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("consensus failed: %+v", out)
	}
	if out.Budget != gen.Figure1a().N()+1 && out.Budget <= out.Rounds {
		t.Fatalf("budget %d not above executed rounds %d", out.Budget, out.Rounds)
	}
	if out.Rounds != out.Metrics.Rounds {
		t.Fatalf("rounds %d != metrics rounds %d", out.Rounds, out.Metrics.Rounds)
	}
}
