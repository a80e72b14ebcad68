package eval

import (
	"context"
	"fmt"
	"sync"

	"lbcast/internal/core"
	"lbcast/internal/faultinject"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file implements the one run driver: B independent consensus
// instances — distinct input vectors and fault patterns — over the same
// graph, executed in one round loop. A Session is a one-instance batch.
// Two or more benign instances of the phase-based algorithms share one
// lane group of core.VectorPhaseNodes; every other instance is a one-lane
// group of its own (core.PhaseNodes for Algorithms 1 and 3). With two or more
// groups, per-vertex batch nodes multiplex the groups' transmissions
// (sim.BatchNode); a single group is stepped by the engine directly.
// Topology-derived state is computed once in a shared graph.Analysis, and
// instances that finish retire from the loop individually. Decisions are
// identical to B one-instance runs (see DESIGN.md §7 for the argument and
// TestBatchMatchesIndependentSessions for the enforcement).

// BatchInstance is the per-instance part of a batch: everything that may
// differ between the B instances. The graph, fault bound, algorithm, and
// model are shared batch-wide (BatchSpec).
type BatchInstance struct {
	// Inputs maps every node to its input (faulty nodes may be omitted).
	Inputs map[graph.NodeID]sim.Value
	// InputSlab, when non-nil, supplies the instance's inputs as a dense
	// vector indexed by NodeID (length exactly G.N()) and takes precedence
	// over Inputs — the same contract as Spec.InputSlab. Map inputs are
	// converted once at session construction; the Monte Carlo trial pool
	// passes recycled slabs directly and may reuse them after the run.
	InputSlab []sim.Value
	// Byzantine overrides the listed nodes with adversarial
	// implementations. Instances do not share Byzantine node instances
	// unless the caller passes the same value twice; a stateful adversary
	// must not be shared across instances.
	Byzantine map[graph.NodeID]sim.Node
}

// BatchSpec describes one batched execution: the shared parameters plus
// one BatchInstance per consensus instance.
type BatchSpec struct {
	G *graph.Graph
	// F is the fault bound the honest nodes are configured for.
	F int
	// T is the equivocation bound (Algo3 only).
	T int
	// Algorithm selects the honest protocol (defaults to Algo1).
	Algorithm Algorithm
	// Model is the communication model (defaults to LocalBroadcast).
	Model sim.Model
	// Equivocators is consulted under the Hybrid model.
	Equivocators graph.Set
	// Rounds overrides the computed round budget (0 = derive from the
	// algorithm).
	Rounds int
	// FullBudget disables per-instance early termination: every instance
	// runs the complete round budget.
	FullBudget bool
	// forceDynamic runs every group on the dynamic flooding path, on
	// fresh unpooled state (see Spec.forceDynamic); the parity suites set
	// it directly.
	forceDynamic bool
	// OmitOKDecisions, when set, skips materializing the per-instance
	// Decisions map for every instance whose outcome satisfies all three
	// consensus properties: its Outcome carries the property booleans and
	// round counts but a nil Decisions. Violating instances are judged
	// exactly as always, byte-identically. The Monte Carlo verdict path
	// sets this — it discards OK outcomes wholesale, so building B
	// decision maps per group only to throw them away was the judging
	// path's dominant allocation.
	OmitOKDecisions bool
	// Observer, when set, receives the batch engine's events. With two or
	// more lane groups, payloads are sim.BatchPayload multiplexes and no
	// Decision events fire (read decisions from the BatchOutcome); a
	// single-group batch reports its group's own payloads, and Decision
	// events of one-lane phase nodes, as a Session does.
	Observer sim.Observer
	// Instances are the per-instance configurations (at least one).
	Instances []BatchInstance
	// churn is a Session's fault-injection schedule (see Spec.Churn); only
	// one-instance batches carry one.
	churn *faultinject.Schedule
}

// BatchOutcome is the judged result of a batched execution.
type BatchOutcome struct {
	// Outcomes holds one judged outcome per instance, in instance order.
	// Per-instance Outcome.Metrics counts only rounds: transmissions and
	// deliveries are shared between instances by multiplexing and cannot
	// be attributed to one instance — see Metrics for the engine totals.
	Outcomes []Outcome `json:"outcomes"`
	// Rounds is the number of rounds the batch loop executed (the maximum
	// over the instances' retirement rounds).
	Rounds int `json:"rounds"`
	// Metrics are the shared engine totals for the whole batch. The
	// transmission count shows the multiplexing win: one physical
	// transmission carries every live instance's payload at that slot.
	Metrics sim.Metrics `json:"metrics"`
}

// OK reports whether all three consensus properties hold in every
// instance.
func (b BatchOutcome) OK() bool {
	for _, o := range b.Outcomes {
		if !o.OK() {
			return false
		}
	}
	return len(b.Outcomes) > 0
}

// BatchSession is a validated, reusable batched execution plan. Each Run
// acquires complete protocol state — recycled from the analysis's run pool
// when the shape qualifies, built fresh otherwise; the session itself
// never mutates after construction, so concurrent Runs are safe under the
// same caveats as Session (shared Observer and Byzantine instances are
// invoked from every run).
type BatchSession struct {
	spec BatchSpec
	base Spec
	topo *graph.Analysis
	// slabs holds every instance's dense input vector (see
	// BatchInstance.InputSlab): the caller's slab when provided, a one-time
	// map conversion otherwise. All per-node input reads below go through
	// slabs, never the instance maps.
	slabs [][]sim.Value
	// pattern is the batch's Byzantine placement rendered canonically; it
	// completes the run-pool key (see byzPattern).
	pattern string
	// pooled marks batches whose run state recycles through the run pool:
	// every instance engages a replay tier (see Spec.replayMode).
	pooled bool
}

// base assembles the shared-parameter Spec of a batch (no inputs, no
// Byzantine overrides — those are per instance).
func (s BatchSpec) base() Spec {
	return Spec{
		G:            s.G,
		F:            s.F,
		T:            s.T,
		Algorithm:    s.Algorithm,
		Model:        s.Model,
		Equivocators: s.Equivocators,
		Rounds:       s.Rounds,
		FullBudget:   s.FullBudget,
		forceDynamic: s.forceDynamic,
		Churn:        s.churn,
	}
}

// NewBatchSession validates and normalizes the spec and returns a
// reusable batched session. The shared parameters are validated once via
// Spec.normalize, and every instance's inputs and overrides are
// range-checked with the same rules.
func NewBatchSession(spec BatchSpec) (*BatchSession, error) {
	return newBatchSessionShared(spec, nil)
}

// NewBatchSessionShared is NewBatchSession drawing topology state —
// memoized BFS choices, disjoint-path layouts, and the compiled
// propagation plan — from a caller-provided shared analysis of spec.G
// (nil selects the graph's canonical shared analysis). Long-lived callers
// that serve many batches over the same graph (the lbcastd scheduler)
// memoize one analysis per graph and pass it here, so steady-state traffic
// rides the compiled-plan replay path instead of re-deriving per-graph
// state per batch. The analysis must be of spec.G and is safe for any
// number of concurrent sessions.
func NewBatchSessionShared(spec BatchSpec, topo *graph.Analysis) (*BatchSession, error) {
	return newBatchSessionShared(spec, topo)
}

// newBatchSessionShared is NewBatchSessionShared; Monte Carlo trial groups
// share one analysis.
func newBatchSessionShared(spec BatchSpec, topo *graph.Analysis) (*BatchSession, error) {
	s := &BatchSession{}
	if err := s.init(spec, topo, make([][]sim.Value, len(spec.Instances))); err != nil {
		return nil, err
	}
	return s, nil
}

// init validates spec and fills s in place, converting each instance's
// inputs into slabs[i]; a Session passes storage of its own, so that it
// is built in one allocation.
func (s *BatchSession) init(spec BatchSpec, topo *graph.Analysis, slabs [][]sim.Value) error {
	if len(spec.Instances) == 0 {
		return fmt.Errorf("eval: batch has no instances")
	}
	base := spec.base()
	if err := base.normalize(); err != nil {
		return err
	}
	pooled := true
	for i, inst := range spec.Instances {
		per := base
		per.Inputs = inst.Inputs
		per.InputSlab = inst.InputSlab
		per.Byzantine = inst.Byzantine
		if err := per.normalize(); err != nil {
			return fmt.Errorf("eval: batch instance %d: %w", i, err)
		}
		slabs[i] = inputSlab(base.G.N(), inst.InputSlab, inst.Inputs)
		pooled = pooled && per.replayMode() != replayOff
	}
	if topo == nil {
		topo = base.G.SharedAnalysis()
	}
	*s = BatchSession{spec: spec, base: base, topo: topo, slabs: slabs, pattern: byzPattern(spec.Instances), pooled: pooled}
	return nil
}

// modeOf classifies how instance inst engages the compiled plans.
func (s *BatchSession) modeOf(inst BatchInstance) replayMode {
	spec := s.base
	spec.Byzantine = inst.Byzantine
	return spec.replayMode()
}

// wire builds the replay wiring of one lane group in the given mode, byz
// being the overrides of its instance (nil for the vector group): the
// plan the group uses, its phantom toggle, and its taint — the overlay of
// a value-faulty group, the churn frontier of a churn group. It hands
// the plan to the group's adversaries that can use it. Nil for a group
// that uses no plan.
func (s *BatchSession) wire(mode replayMode, byz map[graph.NodeID]sim.Node) *core.ReplayShared {
	var rs *core.ReplayShared
	switch mode {
	case replayFull, replayChurn:
		rs = core.NewReplayShared(flood.PlanFor(s.topo))
		if mode == replayChurn {
			rs.SetTaint(nil, churnFrontierPhase(s.base.G, s.base.Churn))
		}
	case replayMasked:
		rs = core.NewReplayShared(flood.MaskedPlanFor(s.topo, byzSet(byz)))
	case replayDelta:
		plan := flood.PlanFor(s.topo)
		rs = core.NewReplayShared(plan)
		rs.SetTaint(flood.NewOverlay(plan, byzSet(byz), s.base.mayUnicast()), 0)
		sharePlan(byz, plan)
	default:
		if s.base.Algorithm == Algo2 {
			// Algorithm 2's honest nodes flood on the benign plan's arena.
			sharePlan(byz, flood.PlanFor(s.topo))
		}
		return nil
	}
	rs.SetPhantom(phantomOK(mode, byz, s.spec.Observer))
	return rs
}

// phantomOK decides the phantom-transmission toggle of a replaying group:
// never with an observer attached (observers retain and render payloads),
// always for benign replay, and for masked replay only while every fault
// promises to ignore its inbox — the faults are the only non-replaying
// consumers of a masked group's transmissions (demultiplexing isolates
// groups by instance index). Overlay and churn groups never phantom: their
// honest nodes genuinely read inboxes.
func phantomOK(mode replayMode, byz map[graph.NodeID]sim.Node, obs sim.Observer) bool {
	switch {
	case obs != nil:
		return false
	case mode == replayFull:
		return true
	case mode == replayMasked:
		return allInboxIgnorers(byz)
	}
	return false
}

// byzSlot locates one Byzantine override slot: instance inst's node at
// vertex u. Recycling re-plugs the current spec's caller-owned adversary
// node into the slot on every run — adversary state is never pooled.
type byzSlot struct {
	inst int
	u    graph.NodeID
}

// batchLoopState is the complete working state of one batch execution:
// lane grouping, replay wiring, the engine's nodes, and the retirement
// bookkeeping. Pooled shapes recycle it through the analysis's run pool
// (see pool.go); the reset pass restores exactly the state a fresh
// construction would produce, while every buffer — receipt stores, merge
// slabs, query scratch, the arena's interned paths — keeps its high-water
// capacity.
type batchLoopState struct {
	insts  []instState
	groups []groupState
	// nodes are the engine's nodes; with two or more groups they are the
	// batchNodes multiplexing the groups, with one group (batchNodes nil)
	// the group's own nodes.
	batchNodes []*sim.BatchNode
	nodes      []sim.Node
	byz        []byzSlot
	eng        *sim.Engine
	// churn drives the fault-injection schedule of a one-instance run
	// routed through a masked topology; nil without a schedule.
	churn *churnRun
	// inputsBuf holds one vertex's lane inputs while a group resets.
	inputsBuf []sim.Value
}

// instState is one instance's place in a run: its lane group and lane,
// its honest vertices, and its retirement. The honest inputs are read from
// the session's input slab when the instance is judged.
type instState struct {
	group, lane int
	honest      graph.Set
	retired     bool
	rounds      int // rounds executed when the instance retired
}

// groupState is one lane group: its instances, its honest phase nodes,
// its replay wiring (see wire) and its count of unretired lanes.
type groupState struct {
	// lanes are the group's instances in lane order.
	lanes []int
	// phase holds the group's honest phase nodes by vertex, nil at a
	// faulty vertex; it is nil for Algorithm 2, which has no phases.
	phase    []*core.VectorPhaseNode
	mode     replayMode
	rs       *core.ReplayShared
	laneLeft int
}

// reset re-arms a recycled run for the session's current spec: engine
// counters, inboxes, and observer; the phantom and recycling toggles (the
// observer may have appeared or vanished since the state was pooled); the
// fault-injection schedule and taint frontier; every protocol node's
// inputs and round state; and the current spec's Byzantine overrides. The
// pool key guarantees the structure — grouping, replay wiring, adversary
// slots — already matches.
func (st *batchLoopState) reset(s *BatchSession) error {
	obs := s.spec.Observer
	st.eng.Reset(obs)
	for g := range st.groups {
		grp := &st.groups[g]
		grp.laneLeft = 0
		if grp.mode == replayChurn {
			// The pool key marks churn presence, not schedule contents, so a
			// recycled run may carry a different event list — and therefore
			// a different taint frontier — than the run it was built for.
			grp.rs.SetTaint(nil, churnFrontierPhase(s.base.G, s.base.Churn))
		}
	}
	for i := range st.insts {
		in := &st.insts[i]
		grp := &st.groups[in.group]
		grp.laneLeft++
		if grp.rs != nil {
			// The pool key pins a masked group's crash-from-start kind, not
			// its faults' promise to ignore their inboxes.
			grp.rs.SetPhantom(phantomOK(grp.mode, s.spec.Instances[i].Byzantine, obs))
		}
		in.retired, in.rounds = false, 0
	}
	if st.churn != nil {
		st.churn.reset(s.base.Churn)
	}
	for _, bn := range st.batchNodes {
		bn.ResetRetirements()
		bn.SetRecycling(obs == nil)
	}
	for _, grp := range st.groups {
		inputs := st.inputsBuf[:len(grp.lanes)]
		for u, vn := range grp.phase {
			if vn != nil {
				vn.Reset(s.laneInputs(inputs, grp.lanes, graph.NodeID(u)))
			}
		}
	}
	for _, bz := range st.byz {
		nd := s.spec.Instances[bz.inst].Byzantine[bz.u]
		grp := st.insts[bz.inst].group
		if st.groups[grp].mode == replayDelta {
			handPlan(nd, st.groups[grp].rs.Plan())
		}
		var err error
		if st.batchNodes != nil {
			err = st.batchNodes[bz.u].SetInstance(grp, nd)
		} else {
			err = st.eng.SetNode(bz.u, nd)
			st.nodes[bz.u] = nd
		}
		if err != nil {
			return fmt.Errorf("eval: pooled run re-plug: %w", err)
		}
	}
	return nil
}

// newBatchLoopState builds the run state of a batch from scratch.
func newBatchLoopState(s *BatchSession) (*batchLoopState, error) {
	g := s.base.G
	n := g.N()
	st := &batchLoopState{insts: make([]instState, len(s.spec.Instances))}

	// Lane grouping: benign instances (no Byzantine overrides anywhere)
	// of the phase-based algorithms have input-independent flooding
	// structure, so two or more of them collapse into ONE lane group whose
	// transmissions carry every benign lane's value at once
	// (core.VectorPhaseNode); each remaining instance is a one-lane group
	// of its own, in instance order. order lists the instances group by
	// group, and each group's lanes are a run of it.
	phased := s.base.Algorithm == Algo1 || s.base.Algorithm == Algo3
	order := make([]int, 0, len(s.spec.Instances))
	if phased {
		for i, inst := range s.spec.Instances {
			if len(inst.Byzantine) == 0 {
				order = append(order, i)
			}
		}
	}
	shared := len(order)
	if shared < 2 {
		order, shared = order[:0], 0
	}
	for i, inst := range s.spec.Instances {
		if shared == 0 || len(inst.Byzantine) > 0 {
			order = append(order, i)
		}
	}
	if shared > 0 {
		st.groups = append(st.groups, groupState{lanes: order[:shared]})
	}
	for k := shared; k < len(order); k++ {
		st.groups = append(st.groups, groupState{lanes: order[k : k+1]})
	}
	// Compiled-plan replay, per group: one wiring per group, chosen by its
	// first instance's replay mode (a shared group's lanes are all benign).
	// Each group that uses a plan gets its own core.ReplayShared, shared
	// across the vertices of the group.
	for gi := range st.groups {
		grp := &st.groups[gi]
		for l, i := range grp.lanes {
			st.insts[i] = instState{group: gi, lane: l}
		}
		inst := s.spec.Instances[grp.lanes[0]]
		grp.mode = s.modeOf(inst)
		grp.rs = s.wire(grp.mode, inst.Byzantine)
		grp.laneLeft = len(grp.lanes)
		if phased {
			grp.phase = make([]*core.VectorPhaseNode, n)
		}
	}
	engTopo := sim.Topology(sim.GraphTopology{G: g})
	if !s.base.Churn.Empty() {
		// An injected world routes through the mutable link-mask view, which
		// the round loop mutates only between engine steps.
		masked := sim.NewMaskedTopology(g)
		st.churn = newChurnRun(s.topo, masked, s.base.Churn)
		engTopo = masked
	}
	st.nodes = make([]sim.Node, n)
	if len(st.groups) > 1 {
		st.batchNodes = make([]*sim.BatchNode, n)
	}
	st.inputsBuf = make([]sim.Value, max(shared, 1))
	inner := make([]sim.Node, len(st.groups))
	for _, u := range g.Nodes() {
		// Multiplexed groups share one arena per vertex: they step
		// sequentially inside the batch node, and the arena is pure
		// message-identity state, so sharing reuses interned prefixes
		// across groups without affecting results. A lone group's nodes
		// keep private arenas.
		var arena *graph.PathArena
		if st.batchNodes != nil {
			arena = graph.NewPathArena(g)
		}
		for gi := range st.groups {
			grp := &st.groups[gi]
			if byz, ok := s.spec.Instances[grp.lanes[0]].Byzantine[u]; ok {
				inner[gi] = byz
				st.byz = append(st.byz, byzSlot{inst: grp.lanes[0], u: u})
				continue
			}
			for _, i := range grp.lanes {
				st.insts[i].honest.Add(u)
			}
			inner[gi] = s.honestNode(grp, u, arena, st.inputsBuf)
		}
		st.nodes[u] = inner[0]
		if st.batchNodes != nil {
			bn, err := sim.NewBatchNode(u, inner)
			if err != nil {
				return nil, fmt.Errorf("eval: %w", err)
			}
			bn.SetRecycling(s.spec.Observer == nil)
			st.batchNodes[u] = bn
			st.nodes[u] = bn
		}
	}
	eng, err := sim.NewEngine(sim.Config{
		Topology:     engTopo,
		Model:        s.base.Model,
		Equivocators: s.base.Equivocators,
		Observer:     s.spec.Observer,
	}, st.nodes)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	st.eng = eng
	for _, grp := range st.groups {
		if grp.mode == replayDelta {
			// Overlay groups read their inboxes, which fill to about the
			// benign plan's fan-in; size them once instead of regrowing them
			// through the first phase.
			for _, u := range g.Nodes() {
				eng.ReserveInbox(u, grp.rs.Plan().MaxRoundFanIn(u))
			}
			break
		}
	}
	return st, nil
}

// honestNode builds group grp's honest node at vertex u: for Algorithms 1
// and 3 a phase node over the lanes' inputs, recorded in grp.phase — a
// core.PhaseNode for one lane, the sim.Decider whose decisions a Session's
// observer sees — and the Algorithm 2 node otherwise. buf has room for the
// lane inputs.
func (s *BatchSession) honestNode(grp *groupState, u graph.NodeID, arena *graph.PathArena, buf []sim.Value) sim.Node {
	spec := s.base
	inputs := s.laneInputs(buf[:len(grp.lanes)], grp.lanes, u)
	var nd sim.Node
	var vn *core.VectorPhaseNode
	switch {
	case grp.phase == nil:
		return core.NewEfficientNodeShared(s.topo, spec.F, u, inputs[0], arena)
	case len(inputs) == 1 && spec.Algorithm == Algo3:
		pn := core.NewHybridNodeShared(s.topo, spec.F, spec.T, u, inputs[0], arena)
		nd, vn = pn, &pn.VectorPhaseNode
	case len(inputs) == 1:
		pn := core.NewAlgo1NodeShared(s.topo, spec.F, u, inputs[0], arena)
		nd, vn = pn, &pn.VectorPhaseNode
	case spec.Algorithm == Algo3:
		vn = core.NewVectorHybridNode(s.topo, spec.F, spec.T, u, inputs, arena)
		nd = vn
	default:
		vn = core.NewVectorAlgo1Node(s.topo, spec.F, u, inputs, arena)
		nd = vn
	}
	if !spec.FullBudget {
		vn.EnableEarlyDecision()
	}
	if grp.rs != nil {
		vn.UseReplay(grp.rs)
	}
	grp.phase[u] = vn
	return nd
}

// laneInputs fills buf with the inputs at vertex u of the given lanes'
// instances and returns it.
func (s *BatchSession) laneInputs(buf []sim.Value, lanes []int, u graph.NodeID) []sim.Value {
	for l, i := range lanes {
		buf[l] = s.slabs[i][u]
	}
	return buf
}

// Run executes every instance of the batch in one shared round loop and
// judges each instance's outcome. Each outcome's Metrics carries its
// round count only: transmissions are shared by multiplexing, and the
// engine totals are in BatchOutcome.Metrics.
//
// Unless the spec demands the full budget, each instance retires from the
// loop as soon as all of its honest nodes have decided — its nodes stop
// being stepped and stop transmitting, exactly like a one-instance run
// that terminates early — and the loop ends when every instance has
// retired or the round budget is exhausted. The context is checked
// between rounds; cancellation aborts mid-execution.
//
// Replay-qualified batches draw their run state from the run pool (see
// pool.go). It goes back to the pool only after a normal finish; every
// other engine — unpooled, cancelled, or failing its reset — is closed
// here, returning its inbox arrays for the next engine.
func (s *BatchSession) Run(ctx context.Context) (BatchOutcome, error) {
	outs := make([]Outcome, len(s.spec.Instances))
	m, err := s.run(ctx, outs)
	if err != nil {
		return BatchOutcome{}, err
	}
	return BatchOutcome{Outcomes: outs, Rounds: m.Rounds, Metrics: m}, nil
}

// run is Run judging into outs (one slot per instance); it returns the
// engine totals.
func (s *BatchSession) run(ctx context.Context, outs []Outcome) (sim.Metrics, error) {
	var st *batchLoopState
	var pl *sync.Pool
	if s.pooled {
		pl = poolsFor(s.topo).pool(s.shape())
		if v := pl.Get(); v != nil {
			poolHits.Add(1)
			st = v.(*batchLoopState)
			if err := st.reset(s); err != nil {
				st.eng.Close()
				return sim.Metrics{}, err
			}
		} else {
			poolMisses.Add(1)
		}
	}
	if st == nil {
		var err error
		if st, err = newBatchLoopState(s); err != nil {
			return sim.Metrics{}, err
		}
	}
	recycle := false
	defer func() {
		if recycle {
			pl.Put(st)
		} else {
			st.eng.Close()
		}
	}()

	budget := s.base.Rounds
	if budget == 0 {
		budget = s.base.DefaultRounds()
	}
	if st.churn != nil {
		noteChurnInvalidation(s.base, budget)
	}
	// A group's laneLeft counts its unretired lanes; a group is retired
	// from the engine only when its last lane retires.
	eng := st.eng
	active := len(outs)
	for r := 0; r < budget && active > 0; r++ {
		if err := ctx.Err(); err != nil {
			return sim.Metrics{}, fmt.Errorf("eval: run canceled after %d of %d rounds: %w",
				eng.Metrics().Rounds, budget, err)
		}
		if st.churn != nil {
			st.churn.boundary(r)
		}
		eng.Step()
		if phaseEndHook != nil && (r+1)%core.PhaseRounds(s.base.G.N()) == 0 {
			phaseEndHook(s, st, (r+1)/core.PhaseRounds(s.base.G.N())-1)
		}
		if s.base.FullBudget {
			continue
		}
		for i := range st.insts {
			in := &st.insts[i]
			if in.retired || !st.allDecided(i) {
				continue
			}
			in.retired = true
			in.rounds = eng.Metrics().Rounds
			active--
			grp := &st.groups[in.group]
			grp.laneLeft--
			if grp.laneLeft == 0 {
				for _, bn := range st.batchNodes {
					bn.Retire(in.group)
				}
			}
		}
	}
	m := eng.Metrics()
	for i := range outs {
		if !st.insts[i].retired {
			st.insts[i].rounds = m.Rounds
		}
		if s.spec.OmitOKDecisions {
			outs[i] = st.judgeLean(i, budget, s.slabs[i])
		} else {
			outs[i] = st.judge(i, budget, s.slabs[i])
		}
	}
	if st.churn != nil {
		st.churn.finish(s.base, &outs[0])
	}
	if s.spec.Observer != nil {
		s.spec.Observer.Done(m)
	}
	recycle = pl != nil
	return m, nil
}

// phaseEndHook, when non-nil, runs after the last round of every phase,
// before that round's retirements, with the index of the phase that just
// ended. Tests install it to check the proof's phase structure at every
// phase end; it is nil in product runs. A checker must pass over runs with
// link churn: the facts it checks are about the faulty set F*, and a
// churned node or link makes the set of nodes that behave faultily change
// from round to round, so no phase's candidate set is F* throughout.
var phaseEndHook func(s *BatchSession, st *batchLoopState, phase int)

// decision reads instance i's decision state at honest vertex u: its lane
// of the group's phase node, or the Algorithm 2 node's decision.
func (st *batchLoopState) decision(i int, u graph.NodeID) (sim.Value, bool) {
	in := &st.insts[i]
	if phase := st.groups[in.group].phase; phase != nil {
		return phase[u].LaneDecision(in.lane)
	}
	nd := st.nodes[u]
	if st.batchNodes != nil {
		nd = st.batchNodes[u].Instance(in.group)
	}
	if d, ok := nd.(sim.Decider); ok {
		return d.Decision()
	}
	return 0, false
}

// allDecided reports whether every honest node of instance i has decided.
func (st *batchLoopState) allDecided(i int) bool {
	for u := range st.insts[i].honest.All() {
		if _, ok := st.decision(i, u); !ok {
			return false
		}
	}
	return true
}

// honestValues returns the set of instance i's honest inputs, read from
// its input slab.
func (st *batchLoopState) honestValues(i int, slab []sim.Value) valueSet {
	var valid valueSet
	for u := range st.insts[i].honest.All() {
		valid.add(slab[u])
	}
	return valid
}

// judge evaluates the consensus properties of instance i, whose inputs are
// slab. The instance metrics carry only the round count; transmissions are
// shared batch-wide.
func (st *batchLoopState) judge(i, budget int, slab []sim.Value) Outcome {
	decisions := make(map[graph.NodeID]sim.Value)
	term := true
	for u := range st.insts[i].honest.All() {
		v, ok := st.decision(i, u)
		if !ok {
			term = false
			continue
		}
		decisions[u] = v
	}
	return judgeOutcome(decisions, st.honestValues(i, slab), term, budget, sim.Metrics{Rounds: st.insts[i].rounds})
}

// judgeLean is judge for the OmitOKDecisions path: it computes the three
// consensus properties without materializing the honest decisions map,
// and only when some property fails falls back to the full judge — so
// violating instances carry exactly the Outcome the default path would
// have produced, while the (overwhelmingly common) OK outcome is built
// allocation-free with a nil Decisions. The property booleans are
// order-independent reductions, so skipping the map changes nothing.
func (st *batchLoopState) judgeLean(i, budget int, slab []sim.Value) Outcome {
	term, agreement, validity := true, true, true
	var ref sim.Value
	first := true
	valid := st.honestValues(i, slab)
	for u := range st.insts[i].honest.All() {
		v, ok := st.decision(i, u)
		if !ok {
			term = false
			continue
		}
		if first {
			ref, first = v, false
		} else if v != ref {
			agreement = false
		}
		if !valid.has(v) {
			validity = false
		}
	}
	if !term || !agreement || !validity {
		return st.judge(i, budget, slab)
	}
	rounds := st.insts[i].rounds
	return Outcome{
		Agreement:   true,
		Validity:    true,
		Termination: true,
		Rounds:      rounds,
		Budget:      budget,
		Metrics:     sim.Metrics{Rounds: rounds},
	}
}

// RunBatch executes the batch spec once. It is the one-shot form of
// NewBatchSession(spec).Run(ctx).
func RunBatch(ctx context.Context, spec BatchSpec) (BatchOutcome, error) {
	return runBatchShared(ctx, spec, nil)
}

// runBatchShared is RunBatch over a caller-shared analysis (nil selects
// the graph's canonical shared analysis).
func runBatchShared(ctx context.Context, spec BatchSpec, topo *graph.Analysis) (BatchOutcome, error) {
	s, err := newBatchSessionShared(spec, topo)
	if err != nil {
		return BatchOutcome{}, err
	}
	return s.Run(ctx)
}
