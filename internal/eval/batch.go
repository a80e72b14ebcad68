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
// Benign instances of the phase-based algorithms share one value-vector
// lane group; every other instance is a group of its own. With two or more
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
	// events of scalar nodes, as a Session does.
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
// blackboard of a wholesale-replaying group, with its phantom toggle set,
// or the delta fragment of a delta group. It hands the plan their honest
// neighbours flood on to the group's adversaries that can use it.
func (s *BatchSession) wire(mode replayMode, byz map[graph.NodeID]sim.Node) (*core.ReplayShared, *flood.DeltaPlan) {
	var rs *core.ReplayShared
	switch mode {
	case replayFull, replayChurn:
		// A churn run replays the benign plan up to its taint frontier.
		rs = core.NewReplayShared(flood.PlanFor(s.topo))
	case replayMasked:
		rs = core.NewReplayShared(flood.MaskedPlanFor(s.topo, byzSet(byz)))
	case replayDelta:
		dp := flood.DeltaPlanFor(s.topo, byzSet(byz))
		sharePlan(byz, dp.Base())
		return nil, dp
	default:
		if s.base.Algorithm == Algo2 {
			// Algorithm 2's honest nodes flood on the benign plan's arena.
			sharePlan(byz, flood.PlanFor(s.topo))
		}
		return nil, nil
	}
	rs.SetPhantom(phantomOK(mode, byz, s.spec.Observer))
	return rs, nil
}

// phantomOK decides the phantom-transmission toggle of a replaying group:
// never with an observer attached (observers retain and render payloads),
// always for benign replay, and for masked replay only while every fault
// promises to ignore its inbox — the faults are the only non-replaying
// consumers of a masked group's transmissions (demultiplexing isolates
// groups by instance index). Delta and churn groups never phantom: their
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

// scalarSlot locates one honest scalar-group protocol node for run
// recycling: instance inst's PhaseNode at vertex u.
type scalarSlot struct {
	inst int
	u    graph.NodeID
	pn   *core.PhaseNode
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
	insts       []instState
	groups      []groupState
	vectorLanes []int // instances in the vector group (group 0), in order
	// nodes are the engine's nodes; with two or more groups they are the
	// batchNodes multiplexing the groups, with one group (batchNodes nil)
	// the group's own nodes.
	batchNodes []*sim.BatchNode
	nodes      []sim.Node
	vnodes     []*core.VectorPhaseNode // per vertex; nil without a vector group
	scalars    []scalarSlot
	byz        []byzSlot
	eng        *sim.Engine
	// churn drives the fault-injection schedule of a one-instance run
	// routed through a masked topology; nil without a schedule.
	churn     *churnRun
	inputsBuf []sim.Value
}

// instState is one instance's place in a run: its lane group and lane,
// its honest vertices and their inputs, and its retirement.
type instState struct {
	group, lane  int
	vector       bool // a lane of the vector group (group 0)
	honest       graph.Set
	honestInputs map[graph.NodeID]sim.Value
	retired      bool
	rounds       int // rounds executed when the instance retired
}

// groupState is one lane group's replay wiring (see wire) and its count of
// unretired lanes.
type groupState struct {
	mode     replayMode
	rs       *core.ReplayShared
	dp       *flood.DeltaPlan
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
		st.groups[g].laneLeft = 0
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
		clear(in.honestInputs)
		for u := range in.honest {
			in.honestInputs[u] = s.slabs[i][u]
		}
	}
	frontier := 0
	if st.churn != nil {
		// The pool key marks churn presence, not schedule contents, so a
		// recycled run may carry a different event list — and therefore a
		// different taint frontier — than the run it was built for.
		st.churn.reset(s.base.Churn)
		frontier = churnFrontierPhase(s.base.G, s.base.Churn)
	}
	for _, bn := range st.batchNodes {
		bn.ResetRetirements()
		bn.SetRecycling(obs == nil)
	}
	if st.vectorLanes != nil {
		inputs := st.inputsBuf
		for u, vn := range st.vnodes {
			for l, i := range st.vectorLanes {
				inputs[l] = s.slabs[i][u]
			}
			vn.Reset(inputs)
		}
	}
	for _, sc := range st.scalars {
		sc.pn.Reset(s.slabs[sc.inst][sc.u])
		if st.churn != nil {
			sc.pn.SetReplayFrontier(frontier)
		}
	}
	for _, bz := range st.byz {
		nd := s.spec.Instances[bz.inst].Byzantine[bz.u]
		grp := st.insts[bz.inst].group
		if dp := st.groups[grp].dp; dp != nil {
			handPlan(nd, dp.Base())
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
	// structure, so they collapse into ONE value-vector lane group whose
	// transmissions carry every benign lane's value at once
	// (core.VectorPhaseNode); each remaining instance is its own scalar
	// group.
	if s.base.Algorithm == Algo1 || s.base.Algorithm == Algo3 {
		for i, inst := range s.spec.Instances {
			if len(inst.Byzantine) == 0 {
				st.vectorLanes = append(st.vectorLanes, i)
			}
		}
	}
	if len(st.vectorLanes) < 2 {
		st.vectorLanes = nil // a lone benign lane runs the scalar path
	}
	groups := 0
	if st.vectorLanes != nil {
		for l, i := range st.vectorLanes {
			st.insts[i].lane, st.insts[i].vector = l, true
		}
		groups = 1
	}
	for i := range st.insts {
		if in := &st.insts[i]; !in.vector {
			in.group = groups
			groups++
		}
	}
	// Compiled-plan replay, per group: one wiring per group, chosen by its
	// first instance's replay mode (a vector group's lanes are all benign).
	// Each wholesale-replaying group gets its own body blackboard, shared
	// across the vertices of the group.
	st.groups = make([]groupState, groups)
	for i, inst := range s.spec.Instances {
		in := &st.insts[i]
		in.honest = graph.NewSet()
		in.honestInputs = make(map[graph.NodeID]sim.Value)
		grp := &st.groups[in.group]
		if in.lane == 0 {
			grp.mode = s.modeOf(inst)
			grp.rs, grp.dp = s.wire(grp.mode, inst.Byzantine)
		}
		grp.laneLeft++
	}
	engTopo := sim.Topology(sim.GraphTopology{G: g})
	frontier := 0
	if !s.base.Churn.Empty() {
		// An injected world routes through the mutable link-mask view, which
		// the round loop mutates only between engine steps.
		masked := sim.NewMaskedTopology(g)
		st.churn = newChurnRun(s.topo, masked, s.base.Churn)
		engTopo = masked
		frontier = churnFrontierPhase(g, s.base.Churn)
	}
	st.nodes = make([]sim.Node, n)
	if groups > 1 {
		st.batchNodes = make([]*sim.BatchNode, n)
	}
	if st.vectorLanes != nil {
		st.vnodes = make([]*core.VectorPhaseNode, n)
		st.inputsBuf = make([]sim.Value, len(st.vectorLanes))
	}
	early := !s.base.FullBudget
	inner := make([]sim.Node, groups)
	for _, u := range g.Nodes() {
		// Multiplexed groups share one arena per vertex: they step
		// sequentially inside the batch node, and the arena is pure
		// message-identity state, so sharing reuses interned prefixes
		// across groups without affecting results. A lone group's nodes
		// keep private arenas.
		var arena *graph.PathArena
		if groups > 1 {
			arena = graph.NewPathArena(g)
		}
		if st.vectorLanes != nil {
			inputs := make([]sim.Value, len(st.vectorLanes))
			for l, i := range st.vectorLanes {
				inputs[l] = s.slabs[i][u]
			}
			var vn *core.VectorPhaseNode
			if s.base.Algorithm == Algo3 {
				vn = core.NewVectorHybridNode(s.topo, s.base.F, s.base.T, u, inputs, arena)
			} else {
				vn = core.NewVectorAlgo1Node(s.topo, s.base.F, u, inputs, arena)
			}
			if early {
				vn.EnableEarlyDecision()
			}
			if rs := st.groups[0].rs; rs != nil {
				vn.UseReplay(rs)
			}
			inner[0] = vn
			st.vnodes[u] = vn
		}
		for i, inst := range s.spec.Instances {
			in := &st.insts[i]
			if in.vector {
				in.honest.Add(u)
				in.honestInputs[u] = s.slabs[i][u]
				continue
			}
			if byz, ok := inst.Byzantine[u]; ok {
				inner[in.group] = byz
				st.byz = append(st.byz, byzSlot{inst: i, u: u})
				continue
			}
			v := s.slabs[i][u]
			nd := s.base.NewHonestNode(s.topo, arena, u, v)
			if pn, ok := nd.(*core.PhaseNode); ok {
				grp := st.groups[in.group]
				if grp.rs != nil {
					pn.UseReplay(grp.rs)
				} else if grp.dp != nil {
					pn.UseDeltaReplay(grp.dp)
				}
				if grp.mode == replayChurn {
					pn.SetReplayFrontier(frontier)
				}
				st.scalars = append(st.scalars, scalarSlot{inst: i, u: u, pn: pn})
			}
			inner[in.group] = nd
			in.honest.Add(u)
			in.honestInputs[u] = v
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
		if grp.dp != nil {
			// Delta groups flood dynamically, so every inbox fills to about
			// the benign plan's fan-in; size it once instead of regrowing it
			// through the first phase.
			for _, u := range g.Nodes() {
				eng.ReserveInbox(u, grp.dp.Base().MaxRoundFanIn(u))
			}
			break
		}
	}
	return st, nil
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
			outs[i] = st.judgeLean(i, budget)
		} else {
			outs[i] = st.judge(i, budget)
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

// decision reads instance i's decision state at vertex u: the lane
// projection for vector groups, the plain Decider path for scalar ones.
func (st *batchLoopState) decision(i int, u graph.NodeID) (sim.Value, bool) {
	nd := st.nodes[u]
	if st.batchNodes != nil {
		nd = st.batchNodes[u].Instance(st.insts[i].group)
	}
	if ld, ok := nd.(sim.LaneDecider); ok {
		return ld.LaneDecision(st.insts[i].lane)
	}
	if d, ok := nd.(sim.Decider); ok {
		return d.Decision()
	}
	return 0, false
}

// allDecided reports whether every honest node of instance i has decided.
func (st *batchLoopState) allDecided(i int) bool {
	for u := range st.insts[i].honest {
		if _, ok := st.decision(i, u); !ok {
			return false
		}
	}
	return true
}

// judge evaluates the consensus properties of instance i. The instance
// metrics carry only the round count; transmissions are shared batch-wide.
func (st *batchLoopState) judge(i, budget int) Outcome {
	decisions := make(map[graph.NodeID]sim.Value)
	term := true
	for u := range st.insts[i].honest {
		v, ok := st.decision(i, u)
		if !ok {
			term = false
			continue
		}
		decisions[u] = v
	}
	return judgeOutcome(decisions, st.insts[i].honestInputs, term, budget, sim.Metrics{Rounds: st.insts[i].rounds})
}

// judgeLean is judge for the OmitOKDecisions path: it computes the three
// consensus properties without materializing the honest decisions map,
// and only when some property fails falls back to the full judge — so
// violating instances carry exactly the Outcome the default path would
// have produced, while the (overwhelmingly common) OK outcome is built
// allocation-free with a nil Decisions. The property booleans are
// order-independent reductions, so skipping the map changes nothing.
func (st *batchLoopState) judgeLean(i, budget int) Outcome {
	term, agreement, validity := true, true, true
	var ref sim.Value
	first := true
	// valid is a 256-bit presence mask over the honest input values —
	// sim.Value is a uint8, so four words cover every possible value
	// without allocating the validInputs map.
	var valid [4]uint64
	for _, v := range st.insts[i].honestInputs {
		valid[v>>6] |= 1 << (v & 63)
	}
	for u := range st.insts[i].honest {
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
		if valid[v>>6]&(1<<(v&63)) == 0 {
			validity = false
		}
	}
	if !term || !agreement || !validity {
		return st.judge(i, budget)
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
