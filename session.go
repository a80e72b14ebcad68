package lbcast

import (
	"context"

	"lbcast/internal/eval"
	"lbcast/internal/sim"
)

// Observer receives execution events from a running Session: round
// starts, physical transmissions, per-node decisions as they happen, and
// completion. Embed NoopObserver for partial implementations.
type Observer = sim.Observer

// NoopObserver is the no-op Observer base.
type NoopObserver = sim.NoopObserver

// Transmission records one physical transmission, as delivered to
// Observer.Transmission.
type Transmission = sim.Transmission

// Metrics are the execution counters delivered to Observer.Done.
type Metrics = sim.Metrics

// TraceRecorder collects every transmission of a run for later rendering
// (text or JSON); pass it to WithObserver. See its WriteText/WriteJSON.
type TraceRecorder = sim.Recorder

// CombineObservers fans events out to several observers in order.
func CombineObservers(obs ...Observer) Observer { return sim.Observers(obs...) }

// Session is a validated, reusable consensus execution: a communication
// graph plus options, runnable any number of times. Each Run gets its own
// honest protocol state (recycled when it replays a compiled plan); the
// Session itself never mutates after construction, so concurrent Runs are
// safe as long as the attached Observer and Byzantine node instances are
// themselves safe to share — both are invoked from every run (see
// WithByzantine and WithObserver).
//
// By default a run terminates as soon as every honest node has decided —
// on benign executions this reduces Algorithm 1's exponential round
// budget to a couple of flooding phases — and the decisions are provably
// the same ones the full budget would produce. Use WithFullBudget for
// worst-case (adversarial) round accounting.
type Session struct {
	inner *eval.Session
}

// Option configures a Session.
type Option func(*eval.Spec)

// WithAlgorithm selects the consensus protocol (default Algorithm1).
func WithAlgorithm(a AlgorithmChoice) Option {
	return func(s *eval.Spec) { s.Algorithm = a }
}

// WithModel selects the communication model (default LocalBroadcast).
func WithModel(m Model) Option {
	return func(s *eval.Spec) { s.Model = m }
}

// WithFaults sets the fault bound f the honest nodes assume.
func WithFaults(f int) Option {
	return func(s *eval.Spec) { s.F = f }
}

// WithEquivocating sets the equivocation bound t (Algorithm3 only).
func WithEquivocating(t int) Option {
	return func(s *eval.Spec) { s.T = t }
}

// WithInputs assigns each node's binary input.
func WithInputs(inputs map[NodeID]Value) Option {
	return func(s *eval.Spec) { s.Inputs = inputs }
}

// WithByzantine overrides the listed nodes with adversarial Node
// implementations (see NewSilentFault, NewTamperFault,
// NewEquivocatorFault, or implement Node directly).
//
// Honest protocol nodes are rebuilt fresh for every Run, but the supplied
// Byzantine instances are shared across runs: a stateful adversary keeps
// evolving from run to run. For independent or concurrent runs, supply
// stateless strategies (NewSilentFault) or fresh instances per session.
func WithByzantine(byz map[NodeID]Node) Option {
	return func(s *eval.Spec) { s.Byzantine = byz }
}

// WithEquivocators marks the nodes allowed to equivocate under the
// Hybrid model.
func WithEquivocators(set Set) Option {
	return func(s *eval.Spec) { s.Equivocators = set }
}

// WithRoundBudget overrides the algorithm's computed round budget.
func WithRoundBudget(rounds int) Option {
	return func(s *eval.Spec) { s.Rounds = rounds }
}

// WithFullBudget disables early termination: the run always executes the
// complete round budget, exactly as the paper's pseudocode is written.
// Use it for adversarial worst-case accounting, or to cross-check that
// early termination produces identical decisions.
func WithFullBudget() Option {
	return func(s *eval.Spec) { s.FullBudget = true }
}

// WithObserver attaches an observer to every run of the session. Combine
// several with CombineObservers. The one instance is shared by all runs:
// for concurrent Runs it must be safe for concurrent use (TraceRecorder
// is; ad-hoc counters usually are not).
func WithObserver(o Observer) Option {
	return func(s *eval.Spec) { s.Observer = o }
}

// NewSession validates the graph and options and returns a reusable
// Session. Defaults are applied once, here: zero Algorithm means
// Algorithm1, zero Model means LocalBroadcast. Invalid configurations
// (nil graph, negative bounds, inputs or overrides for out-of-range
// nodes, t > f) are rejected with a descriptive error.
func NewSession(g *Graph, opts ...Option) (*Session, error) {
	spec := eval.Spec{G: g}
	for _, opt := range opts {
		opt(&spec)
	}
	inner, err := eval.NewSession(spec)
	if err != nil {
		return nil, err
	}
	return &Session{inner: inner}, nil
}

// Run executes one consensus instance and judges agreement, validity and
// termination over the honest nodes. The context is checked between
// rounds: cancellation or deadline expiry aborts the run mid-execution
// and returns the context's error.
//
// Run does not verify the feasibility conditions first — combine with the
// Check functions to interpret failures on sub-threshold graphs.
func (s *Session) Run(ctx context.Context) (Result, error) {
	out, err := s.inner.Run(ctx)
	if err != nil {
		return Result{}, err
	}
	return resultFromOutcome(out), nil
}

// resultFromOutcome converts the internal judged outcome to the public
// Result.
func resultFromOutcome(out eval.Outcome) Result {
	return Result{
		Decisions:     out.Decisions,
		Agreement:     out.Agreement,
		Validity:      out.Validity,
		Termination:   out.Termination,
		Rounds:        out.Rounds,
		RoundBudget:   out.Budget,
		Transmissions: out.Metrics.Transmissions,
		Deliveries:    out.Metrics.Deliveries,
	}
}
