// Package eval wires graphs, algorithm nodes, and adversaries into complete
// executions, judges the consensus properties (agreement, validity,
// termination), and regenerates every experiment in EXPERIMENTS.md.
package eval

import (
	"context"
	"encoding/json"
	"fmt"

	"lbcast/internal/adversary"
	"lbcast/internal/core"
	"lbcast/internal/faultinject"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// Algorithm selects which consensus protocol honest nodes run.
type Algorithm int

// The implemented protocols.
const (
	// Algo1 is the phase-based Algorithm 1 (local broadcast, tight
	// conditions, exponential phases).
	Algo1 Algorithm = iota + 1
	// Algo2 is the efficient Algorithm 2 (2f-connected graphs, O(n)
	// rounds).
	Algo2
	// Algo3 is the hybrid-model Algorithm 3.
	Algo3
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Algo1:
		return "algorithm-1"
	case Algo2:
		return "algorithm-2"
	case Algo3:
		return "algorithm-3"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// MarshalJSON encodes the algorithm by name.
func (a Algorithm) MarshalJSON() ([]byte, error) {
	return json.Marshal(a.String())
}

// Spec describes one complete execution.
type Spec struct {
	G *graph.Graph
	// F is the fault bound the honest nodes are configured for.
	F int
	// T is the equivocation bound (Algo3 only).
	T int
	// Algorithm selects the honest protocol (defaults to Algo1).
	Algorithm Algorithm
	// Inputs maps every node to its input (faulty nodes may be omitted).
	Inputs map[graph.NodeID]sim.Value
	// InputSlab, when non-nil, supplies the inputs as a dense vector
	// indexed by NodeID (length exactly G.N()) and takes precedence over
	// Inputs. This is the allocation-free wire format of the hot paths:
	// maps remain accepted at the API boundary and are converted once at
	// session construction, while Monte Carlo trial scaffolding writes
	// slabs directly. An omitted map entry and a zero slab entry mean the
	// same input, so the two encodings are interchangeable. The slab is
	// read during construction, reset, and judging only — callers that
	// recycle slab buffers (the trial pool) may reuse them as soon as the
	// run completes.
	InputSlab []sim.Value
	// Byzantine overrides the listed nodes with adversarial
	// implementations.
	Byzantine map[graph.NodeID]sim.Node
	// Model is the communication model (defaults to LocalBroadcast).
	Model sim.Model
	// Equivocators is consulted under the Hybrid model.
	Equivocators graph.Set
	// Rounds overrides the computed round budget (0 = derive from the
	// algorithm).
	Rounds int
	// FullBudget disables early termination: the execution always runs
	// the complete round budget, as the paper's pseudocode is written.
	// The default runs round by round and stops as soon as every honest
	// node has decided — identical decisions, far fewer rounds on
	// non-adversarial executions (see core.VectorPhaseNode.EnableEarlyDecision
	// for the soundness argument).
	FullBudget bool
	// forceDynamic runs the dynamic message-by-message flooding path, on
	// fresh unpooled state, even for executions that qualify for
	// compiled-plan replay. It is the reference side of the parity suites,
	// which set it directly; replay is byte-identical to it.
	forceDynamic bool
	// Churn, when non-empty, injects the topology-fault schedule into the
	// run: the round loop applies each boundary's events (node crash/
	// recover, link down/up, partition open/heal) to a mutable link-mask
	// view of the graph before routing that round's transmissions, tracks
	// the masked world's connectivity, and annotates the outcome
	// (ChurnEvents, MinConnectivity, DegradedConnectivity). Replay-qualified
	// benign runs keep replaying their compiled plan for the clean phase
	// prefix before the first event (the taint frontier) and run dynamically
	// from there, byte-identical to a forced-dynamic execution of the same
	// injected world. A nil or zero-event schedule is byte-identical to no
	// schedule at all.
	Churn *faultinject.Schedule
	// Observer, when set, receives the execution's round, transmission,
	// decision and completion events.
	Observer sim.Observer
}

// normalize centralizes the zero-value defaulting the layers above used
// to do ad hoc, and validates the spec. It is the single place implicit
// defaults are applied: Algorithm 0 means Algo1, Model 0 means
// LocalBroadcast.
func (s *Spec) normalize() error {
	if s.G == nil {
		return fmt.Errorf("eval: nil graph")
	}
	n := s.G.N()
	if n > graph.MaxNodes {
		return fmt.Errorf("eval: graph has %d nodes, more than the %d supported", n, graph.MaxNodes)
	}
	if s.Algorithm == 0 {
		s.Algorithm = Algo1
	}
	switch s.Algorithm {
	case Algo1, Algo2, Algo3:
	default:
		return fmt.Errorf("eval: unknown algorithm %s", s.Algorithm)
	}
	if s.Model == 0 {
		s.Model = sim.LocalBroadcast
	}
	switch s.Model {
	case sim.LocalBroadcast, sim.PointToPoint, sim.Hybrid:
	default:
		return fmt.Errorf("eval: unknown model %s", s.Model)
	}
	if s.F < 0 {
		return fmt.Errorf("eval: negative fault bound f=%d", s.F)
	}
	if s.T < 0 {
		return fmt.Errorf("eval: negative equivocation bound t=%d", s.T)
	}
	if s.T > s.F {
		return fmt.Errorf("eval: equivocation bound t=%d exceeds fault bound f=%d", s.T, s.F)
	}
	if s.Rounds < 0 {
		return fmt.Errorf("eval: negative round budget %d", s.Rounds)
	}
	for u := range s.Inputs {
		if int(u) < 0 || int(u) >= n {
			return fmt.Errorf("eval: input for out-of-range node %d (n=%d)", u, n)
		}
	}
	if s.InputSlab != nil && len(s.InputSlab) != n {
		return fmt.Errorf("eval: input slab has %d entries, graph has %d nodes", len(s.InputSlab), n)
	}
	for u, nd := range s.Byzantine {
		if int(u) < 0 || int(u) >= n {
			return fmt.Errorf("eval: Byzantine override for out-of-range node %d (n=%d)", u, n)
		}
		if nd == nil {
			return fmt.Errorf("eval: nil Byzantine node at %d", u)
		}
	}
	for u := range s.Equivocators.All() {
		if int(u) < 0 || int(u) >= n {
			return fmt.Errorf("eval: equivocator out of range: node %d (n=%d)", u, n)
		}
	}
	return validateChurn(s)
}

// Outcome is the judged result of one execution.
type Outcome struct {
	// Decisions holds the honest nodes' outputs.
	Decisions map[graph.NodeID]sim.Value `json:"decisions"`
	// Agreement: all honest nodes decided the same value.
	Agreement bool `json:"agreement"`
	// Validity: every honest output equals some honest node's input.
	Validity bool `json:"validity"`
	// Termination: every honest node decided.
	Termination bool `json:"termination"`
	// Rounds is the number of rounds actually executed (less than Budget
	// when the run terminated early).
	Rounds int `json:"rounds"`
	// Budget is the round budget the execution was allowed.
	Budget int `json:"budget"`
	// Metrics are the engine counters.
	Metrics sim.Metrics `json:"metrics"`
	// ChurnEvents is the number of topology events the run's fault-injection
	// schedule applied (0 and omitted without a schedule).
	ChurnEvents int `json:"churn_events,omitempty"`
	// MinConnectivity is the minimum vertex connectivity of the masked
	// topology observed across the run's event boundaries; set only on
	// injected runs (omitted otherwise).
	MinConnectivity int `json:"min_connectivity,omitempty"`
	// DegradedConnectivity marks an injected run whose masked topology
	// dropped below the paper's thresholds for this spec (connectivity or
	// minimum degree). In that regime the protocol has no guarantee, so a
	// failed outcome is classified as expected degradation — Monte Carlo
	// sweeps count such trials as degraded, never as violations.
	DegradedConnectivity bool `json:"degraded_connectivity,omitempty"`
}

// OK reports whether all three consensus properties hold.
func (o Outcome) OK() bool { return o.Agreement && o.Validity && o.Termination }

// DefaultRounds returns the round budget the selected algorithm needs.
func (s Spec) DefaultRounds() int {
	n := s.G.N()
	switch s.Algorithm {
	case Algo2:
		return core.EfficientRounds(n)
	case Algo3:
		return core.HybridRounds(n, s.F, s.T)
	default:
		return core.Algo1Rounds(n, s.F)
	}
}

// Session is a validated, reusable execution plan: one normalized Spec
// that can be run any number of times. A Session is a one-instance batch
// (see BatchSession): each Run gets its own protocol nodes and engine
// (pooled and reset when the spec replays, fresh otherwise), and the Spec
// is never mutated after NewSession; runs are therefore independent,
// except that the Spec's Observer and Byzantine node instances are shared
// by every run — for concurrent Runs they must be safe to share (stateless
// strategies, a mutex-guarded observer).
type Session struct {
	spec  Spec
	batch BatchSession
	// inst and slab back batch's one instance, so that a Session is a
	// single allocation.
	inst [1]BatchInstance
	slab [1][]sim.Value
}

// NewSession validates and normalizes the spec and returns a reusable
// Session. All defaulting happens here, once: the zero Algorithm becomes
// Algo1 and the zero Model becomes LocalBroadcast; nonsense (negative
// bounds, inputs or overrides for out-of-range nodes, t > f) is rejected
// with a descriptive error.
func NewSession(spec Spec) (*Session, error) {
	return newSessionShared(spec, nil)
}

// newSessionShared is NewSession drawing topology state — memoized BFS
// choices, disjoint-path layouts, and compiled propagation plans — from a
// caller-provided shared analysis of spec.G (nil selects the graph's
// canonical shared analysis, so independent sessions over one graph reuse
// each other's compiled plans and run pools). Monte Carlo trials and sweep
// cells over one graph pass the same analysis explicitly.
func newSessionShared(spec Spec, topo *graph.Analysis) (*Session, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	// The one map→slab conversion point: from here on every internal
	// reader (run construction, pooled reset, judging) indexes the dense
	// slab instead of hashing map lookups per node.
	if spec.InputSlab == nil {
		spec.InputSlab = inputSlab(spec.G.N(), nil, spec.Inputs)
	}
	s := &Session{spec: spec}
	s.inst[0] = BatchInstance{InputSlab: spec.InputSlab, Byzantine: spec.Byzantine}
	err := s.batch.init(BatchSpec{
		G:            spec.G,
		F:            spec.F,
		T:            spec.T,
		Algorithm:    spec.Algorithm,
		Model:        spec.Model,
		Equivocators: spec.Equivocators,
		Rounds:       spec.Rounds,
		FullBudget:   spec.FullBudget,
		forceDynamic: spec.forceDynamic,
		Observer:     spec.Observer,
		Instances:    s.inst[:],
		churn:        spec.Churn,
	}, topo, s.slab[:])
	if err != nil {
		return nil, err
	}
	return s, nil
}

// inputSlab returns the dense input vector of one instance: the caller's
// slab when provided, otherwise a fresh conversion of the map. Omitted map
// entries become the zero value, exactly what the historical per-node map
// lookups defaulted to, so the two encodings are interchangeable.
func inputSlab(n int, slab []sim.Value, m map[graph.NodeID]sim.Value) []sim.Value {
	if slab != nil {
		return slab
	}
	out := make([]sim.Value, n)
	for u, v := range m {
		out[u] = v
	}
	return out
}

// replayMode classifies how an execution engages the compiled propagation
// plans (see internal/flood plan.go and faultplan.go).
type replayMode int

const (
	// replayOff runs the dynamic message-by-message path, unpooled: the
	// spec forces it, the algorithm replays no plan (Algo2 floods
	// dynamically on the benign plan's frozen arena, since its report
	// flooding is value-dependent), or Byzantine overrides meet churn.
	replayOff replayMode = iota
	// replayFull replays the benign all-relays-correct plan wholesale —
	// no Byzantine overrides anywhere.
	replayFull
	// replayMasked replays a per-mask crash plan wholesale: every
	// Byzantine override is crash-from-start, so the fault pattern is
	// value-blind and the whole faulty execution is compiled.
	replayMasked
	// replayDelta replays the benign plan through an overlay of the
	// faulty nodes' sends (flood.Overlay), falling back to the dynamic
	// rules for the rest of a phase whose sends do not fit it:
	// tamper/equivocation/forgery worlds, and crash mixes that are not
	// silent from round zero.
	replayDelta
	// replayChurn is the fault-injection tier: a benign run with a topology
	// schedule replays the benign plan for the clean phase prefix before the
	// first event (the taint frontier) and runs dynamically over the masked
	// topology from there. Pooled like the other replay tiers, with a
	// churn-marked pool key.
	replayChurn
)

// crashedFromStart is the optional adversary capability that admits an
// execution to masked-plan replay: a node reporting true promises to
// transmit nothing for the whole run, starting at round zero — exactly the
// fault shape CompileMaskedPlan compiles. adversary.SilentNode implements
// it.
type crashedFromStart interface{ CrashedFromStart() bool }

// allCrashedFromStart reports whether every override promises crash-from-
// start behavior. False for an empty map only by convention of the caller
// (replayMode checks the benign case first).
func allCrashedFromStart(byz map[graph.NodeID]sim.Node) bool {
	for _, nd := range byz {
		c, ok := nd.(crashedFromStart)
		if !ok || !c.CrashedFromStart() {
			return false
		}
	}
	return true
}

// allInboxIgnorers reports whether every override promises to never read
// its inbox (sim.InboxIgnorer) — the condition for phantom transmissions
// in a masked run, where the only non-replaying consumers are the faults
// themselves.
func allInboxIgnorers(byz map[graph.NodeID]sim.Node) bool {
	for _, nd := range byz {
		ig, ok := nd.(sim.InboxIgnorer)
		if !ok || !ig.IgnoresInbox() {
			return false
		}
	}
	return true
}

// byzSet returns the Byzantine vertex set of a spec.
func byzSet(byz map[graph.NodeID]sim.Node) graph.Set {
	s := graph.NewSet()
	for u := range byz {
		s.Add(u)
	}
	return s
}

// replayMode classifies the spec's executions: a phase-based algorithm
// with no overrides replays the benign plan wholesale; all-crash fault
// patterns replay a masked plan (the pattern is value-blind, so the whole
// faulty execution compiles); any value-faulty override (tamper,
// equivocate, forge, mid-run crash) replays the benign plan through an
// overlay of the faulty nodes' sends, with the dynamic rules taking over
// any phase from the round its sends stop fitting. All replaying modes are
// byte-identical to the forced-dynamic path and run on pooled recycled
// state.
func (s Spec) replayMode() replayMode {
	if s.forceDynamic || (s.Algorithm != Algo1 && s.Algorithm != Algo3) {
		return replayOff
	}
	if !s.Churn.Empty() {
		// A topology schedule invalidates the compiled plans from its first
		// event onward. Benign injected worlds keep the clean prefix via
		// the frontier tier; worlds mixing Byzantine overrides with churn
		// run fully dynamic (masked plans and the overlay both assume the
		// static adjacency).
		if len(s.Byzantine) == 0 {
			return replayChurn
		}
		return replayOff
	}
	if len(s.Byzantine) == 0 {
		return replayFull
	}
	if allCrashedFromStart(s.Byzantine) {
		return replayMasked
	}
	return replayDelta
}

// mayUnicast returns the nodes the spec's transport lets transmit to a
// single neighbour: every node point-to-point, the equivocators under
// Hybrid, none under local broadcast.
func (s Spec) mayUnicast() graph.Set {
	switch s.Model {
	case sim.PointToPoint:
		return graph.NewSet(s.G.Nodes()...)
	case sim.Hybrid:
		return s.Equivocators
	}
	return 0
}

// Spec returns the session's normalized spec.
func (s *Session) Spec() Spec { return s.spec }

// Run executes one instance of the session's spec as a one-instance batch
// (see BatchSession.Run) and judges the outcome; its Metrics are the
// engine's full counters. Unless the spec demands the full budget, the run
// stops as soon as every honest node has decided — on benign executions
// this cuts Algorithm 1's exponential budget down to a couple of phases.
// The context is checked between rounds; cancellation aborts the run
// mid-execution and returns ctx's error.
func (s *Session) Run(ctx context.Context) (Outcome, error) {
	var out [1]Outcome
	m, err := s.batch.run(ctx, out[:])
	if err != nil {
		return Outcome{}, err
	}
	out[0].Metrics = m
	return out[0], nil
}

// Run executes the spec once and judges the outcome. It is the one-shot
// form of NewSession(spec).Run(context.Background()).
func Run(spec Spec) (Outcome, error) {
	s, err := NewSession(spec)
	if err != nil {
		return Outcome{}, err
	}
	return s.Run(context.Background())
}

// Judge evaluates the consensus properties over the honest nodes of a
// finished engine run. budget is the round allowance the run had; the
// rounds actually executed are read from the engine.
func Judge(eng *sim.Engine, honest graph.Set, honestInputs map[graph.NodeID]sim.Value, budget int) Outcome {
	all := eng.Decisions()
	decisions := make(map[graph.NodeID]sim.Value)
	term := true
	for u := range honest.All() {
		v, ok := all[u]
		if !ok {
			term = false
			continue
		}
		decisions[u] = v
	}
	var valid valueSet
	for _, v := range honestInputs {
		valid.add(v)
	}
	return judgeOutcome(decisions, valid, term, budget, eng.Metrics())
}

// valueSet is a presence set over sim.Value: a uint8, so four words cover
// every possible value without allocating.
type valueSet [4]uint64

func (s *valueSet) add(v sim.Value)      { s[v>>6] |= 1 << (v & 63) }
func (s *valueSet) has(v sim.Value) bool { return s[v>>6]&(1<<(v&63)) != 0 }

// judgeOutcome evaluates the three consensus properties over collected
// honest decisions and the set of honest inputs — the shared core of Judge
// and the batch runner's per-instance judging, so the two paths can never
// diverge.
func judgeOutcome(decisions map[graph.NodeID]sim.Value, valid valueSet, term bool, budget int, metrics sim.Metrics) Outcome {
	agreement := true
	var ref sim.Value
	first := true
	for _, v := range decisions {
		if first {
			ref, first = v, false
			continue
		}
		if v != ref {
			agreement = false
			break
		}
	}
	validity := true
	for _, v := range decisions {
		if !valid.has(v) {
			validity = false
			break
		}
	}
	return Outcome{
		Decisions:   decisions,
		Agreement:   agreement && term,
		Validity:    validity && term,
		Termination: term,
		Rounds:      metrics.Rounds,
		Budget:      budget,
		Metrics:     metrics,
	}
}

// RunAttackExecution runs one execution of a necessity Attack with honest
// nodes built by the spec's factory, under the hybrid transport when the
// execution has equivocators. Attack executions replay scripted
// transcripts against the worst case, so they always run the full round
// budget.
func RunAttackExecution(g *graph.Graph, f, t int, alg Algorithm, ex adversary.AttackExecution, rounds int) (Outcome, error) {
	model := sim.LocalBroadcast
	if ex.Equivocators.Len() > 0 {
		model = sim.Hybrid
	}
	return Run(Spec{
		G:            g,
		F:            f,
		T:            t,
		Algorithm:    alg,
		Inputs:       ex.Inputs,
		Byzantine:    ex.Byzantine,
		Model:        model,
		Equivocators: ex.Equivocators,
		Rounds:       rounds,
		FullBudget:   true,
	})
}
