package lbcast

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"lbcast/internal/eval"
)

func TestSessionReuseAcrossRuns(t *testing.T) {
	g := Figure1a()
	s, err := NewSession(g,
		WithFaults(1),
		WithInputs(inputMap(0, 1, 0, 1, 1)),
		WithByzantine(map[NodeID]Node{3: NewSilentFault(3)}),
	)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !first.OK() {
		t.Fatalf("consensus failed: %+v", first)
	}
	for i := 0; i < 3; i++ {
		again, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged:\nfirst = %+v\nagain = %+v", i, first, again)
		}
	}
}

func TestSessionConcurrentRuns(t *testing.T) {
	g := Figure1a()
	s, err := NewSession(g, WithFaults(1), WithInputs(inputMap(1, 0, 1, 0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Run(context.Background())
			if err == nil && !res.OK() {
				err = errors.New("consensus failed")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
}

func TestSessionContextCancellationMidExecution(t *testing.T) {
	g := Figure1a()
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the run, after the third round has started.
	canceller := &cancelObserver{cancel: cancel, afterRound: 3}
	s, err := NewSession(g,
		WithFaults(1),
		WithInputs(inputMap(0, 1, 0, 1, 0)),
		WithFullBudget(),
		WithObserver(canceller),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The session stays usable with a fresh context.
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("rerun after cancellation failed: %+v", res)
	}
}

type cancelObserver struct {
	NoopObserver
	cancel     context.CancelFunc
	afterRound int
}

func (c *cancelObserver) RoundStart(round int) {
	if round == c.afterRound {
		c.cancel()
	}
}

// TestRunsLeaveNoGoroutines: once a run returns, none of its goroutines
// remain — whether it completed (and went back to the run pool) or was
// cancelled mid-execution (and had its engine closed on the spot).
// Engines step nodes on the caller's goroutine, so a recycled run parked
// in the pool holds none either.
func TestRunsLeaveNoGoroutines(t *testing.T) {
	inputs := inputMap(0, 1, 0, 1, 0)
	session := func(ctx context.Context, obs Observer) error {
		s, err := NewSession(Figure1a(), WithFaults(1), WithInputs(inputs), WithObserver(obs))
		if err == nil {
			_, err = s.Run(ctx)
		}
		return err
	}
	batch := func(ctx context.Context, obs Observer) error {
		insts := []BatchInstance{{Inputs: inputs}, {Inputs: inputMap(1, 1, 0, 0, 1)}}
		b, err := NewBatch(Figure1a(), insts, WithFaults(1), WithObserver(obs))
		if err == nil {
			_, err = b.Run(ctx)
		}
		return err
	}
	monteCarlo := func(ctx context.Context, _ Observer) error {
		_, err := eval.MonteCarloContext(ctx, eval.MonteCarloConfig{G: Figure1b(), F: 2, Trials: 8, FaultProb: 0.25, Seed: 3, Workers: 1})
		return err
	}
	cases := []struct {
		name      string
		run       func(context.Context, Observer) error
		cancelled bool
	}{
		{"session/cancelled", session, true},
		{"batch/cancelled", batch, true},
		{"session/completed", session, false},
		{"batch/completed", batch, false},
		{"montecarlo/completed", monteCarlo, false},
	}
	for _, c := range cases {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		obs := &cancelObserver{cancel: cancel, afterRound: -1}
		if c.cancelled {
			obs.afterRound = 1
		}
		err := c.run(ctx, obs)
		cancel()
		if c.cancelled && !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", c.name, err)
		}
		if !c.cancelled && err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the run, %d before", c.name, runtime.NumGoroutine(), base)
			}
		}
	}
}

func TestSessionAlreadyCancelledContext(t *testing.T) {
	g := Figure1a()
	s, err := NewSession(g, WithFaults(1), WithInputs(inputMap(0, 1, 0, 1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEarlyTerminationParityFaultFree is the headline property: on the
// paper's Figure 1(a) instance, the default session finishes in strictly
// fewer rounds than Algorithm 1's exponential budget while producing
// exactly the decisions of the full-budget run.
func TestEarlyTerminationParityFaultFree(t *testing.T) {
	g := Figure1a()
	inputs := inputMap(0, 1, 0, 1, 0)
	early, err := NewSession(g, WithFaults(1), WithInputs(inputs))
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewSession(g, WithFaults(1), WithInputs(inputs), WithFullBudget())
	if err != nil {
		t.Fatal(err)
	}
	fast, err := early.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !fast.OK() || !slow.OK() {
		t.Fatalf("consensus failed: fast=%+v slow=%+v", fast, slow)
	}
	budget := Algorithm1Rounds(g.N(), 1)
	if fast.Rounds >= budget {
		t.Fatalf("early run executed %d rounds, want < %d", fast.Rounds, budget)
	}
	if slow.Rounds != budget {
		t.Fatalf("full-budget run executed %d rounds, want %d", slow.Rounds, budget)
	}
	if !reflect.DeepEqual(fast.Decisions, slow.Decisions) {
		t.Fatalf("decisions diverge:\nearly = %v\nfull  = %v", fast.Decisions, slow.Decisions)
	}
}

// runParityPair runs the same configuration with and without early
// termination and asserts identical decisions and no extra rounds.
// mkOpts is called per run so each side gets fresh (stateful) Byzantine
// node instances.
func runParityPair(t *testing.T, g *Graph, mkOpts func() []Option) (fast, slow Result) {
	t.Helper()
	run := func(extra ...Option) Result {
		t.Helper()
		s, err := NewSession(g, append(mkOpts(), extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast = run()
	slow = run(WithFullBudget())
	if !reflect.DeepEqual(fast.Decisions, slow.Decisions) {
		t.Fatalf("decisions diverge:\nearly = %v\nfull  = %v", fast.Decisions, slow.Decisions)
	}
	if fast.Rounds > slow.Rounds {
		t.Fatalf("early run used more rounds (%d > %d)", fast.Rounds, slow.Rounds)
	}
	return fast, slow
}

// TestEarlyTerminationParityFaulty cross-checks parity under faults: for
// every strategy and fault position on Figure 1(a), early termination
// must yield exactly the full-budget decisions in no more rounds. (On the
// sparse 5-cycle an actual fault can sit on one of the only f+1 disjoint
// paths between some pairs, so the unanimity certificate conservatively
// withholds early decisions there — decisions still match.)
func TestEarlyTerminationParityFaulty(t *testing.T) {
	g := Figure1a()
	inputs := inputMap(1, 1, 0, 1, 1)
	strategies := map[string]func(z NodeID) Node{
		"silent": func(z NodeID) Node { return NewSilentFault(z) },
		"tamper": func(z NodeID) Node { return NewTamperFault(g, z, PhaseRounds(g), 42) },
		"equiv":  func(z NodeID) Node { return NewEquivocatorFault(g, z, PhaseRounds(g)) },
	}
	for name, mk := range strategies {
		for z := 0; z < g.N(); z++ {
			t.Run(name, func(t *testing.T) {
				runParityPair(t, g, func() []Option {
					return []Option{
						WithFaults(1),
						WithInputs(inputs),
						WithByzantine(map[NodeID]Node{NodeID(z): mk(NodeID(z))}),
					}
				})
			})
		}
	}
}

// TestEarlyTerminationFaultySpeedup: on a graph dense enough to route f+1
// disjoint paths around the actual fault (K5), early termination fires
// even in faulty runs — strictly fewer rounds, identical decisions.
func TestEarlyTerminationFaultySpeedup(t *testing.T) {
	g, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := runParityPair(t, g, func() []Option {
		return []Option{
			WithFaults(1),
			WithInputs(inputMap(1, 1, 0, 1, 0)),
			WithByzantine(map[NodeID]Node{2: NewSilentFault(2)}),
		}
	})
	if !fast.OK() || !slow.OK() {
		t.Fatalf("consensus failed: fast=%+v slow=%+v", fast, slow)
	}
	if fast.Rounds >= slow.Rounds {
		t.Fatalf("faulty K5 run did not terminate early: %d vs %d rounds", fast.Rounds, slow.Rounds)
	}
}

func TestSessionRoundBudgetOverride(t *testing.T) {
	g := Figure1a()
	s, err := NewSession(g,
		WithFaults(1),
		WithInputs(inputMap(0, 1, 0, 1, 0)),
		WithRoundBudget(3), // far too few rounds to decide
		WithFullBudget(),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination {
		t.Fatal("3-round run cannot terminate")
	}
	if res.Rounds != 3 || res.RoundBudget != 3 {
		t.Fatalf("rounds=%d budget=%d, want 3/3", res.Rounds, res.RoundBudget)
	}
}

func TestSessionObserverEvents(t *testing.T) {
	g := Figure1a()
	obs := &countingObserver{}
	s, err := NewSession(g,
		WithFaults(1),
		WithInputs(inputMap(0, 1, 0, 1, 0)),
		WithObserver(obs),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if obs.rounds != res.Rounds {
		t.Fatalf("observed %d round starts, ran %d rounds", obs.rounds, res.Rounds)
	}
	if obs.transmissions != res.Transmissions {
		t.Fatalf("observed %d transmissions, counted %d", obs.transmissions, res.Transmissions)
	}
	if obs.decisions != len(res.Decisions) {
		t.Fatalf("observed %d decisions, judged %d", obs.decisions, len(res.Decisions))
	}
	if obs.done != 1 {
		t.Fatalf("Done fired %d times", obs.done)
	}
}

type countingObserver struct {
	NoopObserver
	rounds, transmissions, decisions, done int
}

func (c *countingObserver) RoundStart(int)              { c.rounds++ }
func (c *countingObserver) Transmission(Transmission)   { c.transmissions++ }
func (c *countingObserver) Decision(NodeID, Value, int) { c.decisions++ }
func (c *countingObserver) Done(Metrics)                { c.done++ }

func TestSessionTraceRecorderObserver(t *testing.T) {
	g := Figure1a()
	rec := &TraceRecorder{}
	s, err := NewSession(g,
		WithFaults(1),
		WithInputs(inputMap(0, 1, 0, 1, 0)),
		WithObserver(CombineObservers(rec, nil)),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != res.Transmissions {
		t.Fatalf("recorded %d transmissions, counted %d", rec.Len(), res.Transmissions)
	}
}

func TestNewSessionValidation(t *testing.T) {
	g := Figure1a()
	cases := []struct {
		name string
		g    *Graph
		opts []Option
	}{
		{"nil graph", nil, nil},
		{"negative f", g, []Option{WithFaults(-1)}},
		{"negative t", g, []Option{WithFaults(1), WithEquivocating(-1)}},
		{"t exceeds f", g, []Option{WithFaults(1), WithEquivocating(2)}},
		{"out-of-range input", g, []Option{WithInputs(map[NodeID]Value{9: One})}},
		{"out-of-range byzantine", g, []Option{WithByzantine(map[NodeID]Node{7: NewSilentFault(7)})}},
		{"nil byzantine node", g, []Option{WithByzantine(map[NodeID]Node{1: nil})}},
		{"negative budget", g, []Option{WithRoundBudget(-1)}},
		{"bad algorithm", g, []Option{WithAlgorithm(AlgorithmChoice(9))}},
		{"bad model", g, []Option{WithModel(Model(9))}},
		{"out-of-range equivocator", g, []Option{WithEquivocators(NewSet(11))}},
	}
	for _, c := range cases {
		if _, err := NewSession(c.g, c.opts...); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
}
