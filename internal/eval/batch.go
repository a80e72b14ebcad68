package eval

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"lbcast/internal/core"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file implements the batched multi-instance engine: B independent
// consensus instances — distinct input vectors and fault patterns — over
// the same graph, executed in one round loop. Per-vertex batch nodes
// multiplex all instances' transmissions (sim.BatchNode), topology-derived
// state is computed once in a shared graph.Analysis, and instances that
// finish retire from the loop individually. Decisions are identical to B
// separate Session runs (see DESIGN.md §7 for the argument and
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
	// Sequential disables the engine's parallel round execution.
	Sequential bool
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
	// Observer, when set, receives the batch engine's events. Payloads are
	// sim.BatchPayload multiplexes, and no Decision events fire (instance
	// decisions are per instance; read them from the BatchOutcome).
	Observer sim.Observer
	// Instances are the per-instance configurations (at least one).
	Instances []BatchInstance
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
		Sequential:   s.Sequential,
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
// (nil builds a private one). Long-lived callers that serve many batches
// over the same graph (the lbcastd scheduler) memoize one analysis per
// graph and pass it here, so steady-state traffic rides the compiled-plan
// replay path instead of re-deriving per-graph state per batch. The
// analysis must be of spec.G and is safe for any number of concurrent
// sessions.
func NewBatchSessionShared(spec BatchSpec, topo *graph.Analysis) (*BatchSession, error) {
	return newBatchSessionShared(spec, topo)
}

// newBatchSessionShared is NewBatchSessionShared, the batched analogue of
// newSessionShared: Monte Carlo trial groups share one analysis.
func newBatchSessionShared(spec BatchSpec, topo *graph.Analysis) (*BatchSession, error) {
	if len(spec.Instances) == 0 {
		return nil, fmt.Errorf("eval: batch has no instances")
	}
	base := spec.base()
	if err := base.normalize(); err != nil {
		return nil, err
	}
	slabs := make([][]sim.Value, len(spec.Instances))
	for i, inst := range spec.Instances {
		per := base
		per.Inputs = inst.Inputs
		per.InputSlab = inst.InputSlab
		per.Byzantine = inst.Byzantine
		if err := per.normalize(); err != nil {
			return nil, fmt.Errorf("eval: batch instance %d: %w", i, err)
		}
		slabs[i] = inputSlab(base.G.N(), inst.InputSlab, inst.Inputs)
	}
	if topo == nil {
		topo = base.G.SharedAnalysis()
	}
	return &BatchSession{spec: spec, base: base, topo: topo, slabs: slabs, pattern: byzPattern(spec.Instances)}, nil
}

// byzPattern renders the batch's Byzantine placement — which vertices each
// instance overrides, and each fault's replay kind ('c' crash-from-start,
// 'd' value-faulty; see appendByzKindPattern) — as a canonical string. Two
// batches with equal patterns (and equal shared parameters) build
// structurally identical run state: the same lane grouping, the same
// replay wiring (the kind decides masked vs delta wiring for a faulty
// instance's honest nodes), the same adversary slots; only inputs,
// adversary node values, and the observer differ, all of which a recycled
// run's reset pass re-applies. The pattern is therefore the
// batch-specific part of the run-pool key.
func byzPattern(instances []BatchInstance) string {
	var sb strings.Builder
	for i, inst := range instances {
		if i > 0 {
			sb.WriteByte(';')
		}
		appendByzKindPattern(&sb, inst.Byzantine)
	}
	return sb.String()
}

// poolable reports whether the batch's run state recycles through the
// analysis-anchored run pool: the phase-based algorithms, unless the spec
// forces the dynamic path. Byzantine placements pool too — the adversary
// nodes themselves are never pooled; every recycled run re-plugs the
// current spec's caller-owned overrides into their slots (see
// batchLoopState.reset) — but each distinct placement keys its own pool
// via the pattern string.
func (s *BatchSession) poolable() bool {
	return !s.spec.forceDynamic && (s.base.Algorithm == Algo1 || s.base.Algorithm == Algo3)
}

// scalarSlot locates one honest scalar-group protocol node for run
// recycling: instance inst's PhaseNode at vertex u.
type scalarSlot struct {
	inst int
	u    graph.NodeID
	pn   *core.PhaseNode
}

// byzSlot locates one Byzantine override slot: group grp at vertex u
// belongs to instance inst. Recycling re-plugs the current spec's
// caller-owned adversary node into the slot on every run — adversary
// state is never pooled.
type byzSlot struct {
	inst int
	u    graph.NodeID
	grp  int
}

// batchLoopState is the complete working state of one batch execution:
// lane grouping, replay blackboards, per-vertex batch nodes, the engine,
// and the retirement bookkeeping. Poolable shapes recycle it
// through the analysis's run pool (see pool.go); the reset pass restores
// exactly the state a fresh construction would produce, while every
// buffer — receipt stores, merge slabs, query scratch, the arena's
// interned paths — keeps its high-water capacity.
type batchLoopState struct {
	groupOf, laneOf []int
	vectorLanes     []int
	inVector        []bool
	groups          int
	vecRS           *core.ReplayShared
	scalarRS        []*core.ReplayShared
	scalarDP        []*flood.DeltaPlan
	honest          []graph.Set
	honestInputs    []map[graph.NodeID]sim.Value
	batchNodes      []*sim.BatchNode
	nodes           []sim.Node
	vnodes          []*core.VectorPhaseNode // per vertex; nil without a vector group
	scalars         []scalarSlot
	byz             []byzSlot
	eng             *sim.Engine
	laneLeft        []int
	rounds          []int
	retired         []bool
	inputsBuf       []sim.Value
}

// reset re-arms a recycled run for the session's current spec: engine
// counters, inboxes, and observer; the phantom and recycling toggles (the
// observer may have appeared or vanished since the state was pooled);
// every protocol node's inputs and round state; and the current spec's
// Byzantine overrides. The pool key guarantees the structure — grouping,
// replay wiring, adversary slots — already matches.
func (st *batchLoopState) reset(s *BatchSession) error {
	obs := s.spec.Observer
	phantom := obs == nil
	st.eng.Reset(obs)
	if st.vecRS != nil {
		st.vecRS.SetPhantom(phantom)
	}
	for i, inst := range s.spec.Instances {
		if st.inVector[i] {
			continue
		}
		if rs := st.scalarRS[st.groupOf[i]]; rs != nil {
			ph := phantom
			if len(inst.Byzantine) > 0 {
				// A masked group may only phantom while every fault in it
				// still promises to ignore its inbox — the pool key pins
				// the crash-from-start kind, not the ignore promise.
				ph = ph && allInboxIgnorers(inst.Byzantine)
			}
			rs.SetPhantom(ph)
		}
	}
	clear(st.rounds)
	clear(st.retired)
	clear(st.laneLeft)
	for i := range st.groupOf {
		st.laneLeft[st.groupOf[i]]++
	}
	for _, bn := range st.batchNodes {
		bn.ResetRetirements()
		bn.SetRecycling(phantom)
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
	}
	for _, bz := range st.byz {
		nd := s.spec.Instances[bz.inst].Byzantine[bz.u]
		if dp := st.scalarDP[bz.grp]; dp != nil {
			handPlan(nd, dp.Base())
		}
		if err := st.batchNodes[bz.u].SetInstance(bz.grp, nd); err != nil {
			return fmt.Errorf("eval: %w", err)
		}
	}
	for i := range st.honestInputs {
		clear(st.honestInputs[i])
		for u := range st.honest[i] {
			st.honestInputs[i][u] = s.slabs[i][u]
		}
	}
	return nil
}

// newBatchLoopState builds the run state of a batch from scratch.
func newBatchLoopState(s *BatchSession) (*batchLoopState, error) {
	b := len(s.spec.Instances)
	g := s.base.G
	n := g.N()

	// Lane grouping: benign instances (no Byzantine overrides anywhere)
	// of the phase-based algorithms have input-independent flooding
	// structure, so they collapse into ONE value-vector lane group whose
	// transmissions carry every benign lane's value at once
	// (core.VectorPhaseNode); each remaining instance is its own scalar
	// group. The sim.BatchNode multiplexes per group.
	groupOf := make([]int, b) // instance -> group index
	laneOf := make([]int, b)  // instance -> lane within its group
	var vectorLanes []int     // instances in the vector group, in order
	vectorizable := s.base.Algorithm == Algo1 || s.base.Algorithm == Algo3
	for i, inst := range s.spec.Instances {
		if vectorizable && len(inst.Byzantine) == 0 {
			vectorLanes = append(vectorLanes, i)
		}
	}
	if len(vectorLanes) < 2 {
		vectorLanes = nil // a lone benign lane runs the scalar path
	}
	groups := 0
	if vectorLanes != nil {
		for l, i := range vectorLanes {
			groupOf[i] = 0
			laneOf[i] = l
		}
		groups = 1
	}
	inVector := make([]bool, b)
	for _, i := range vectorLanes {
		inVector[i] = true
	}
	for i := range s.spec.Instances {
		if !inVector[i] {
			groupOf[i] = groups
			laneOf[i] = 0
			groups++
		}
	}

	// Compiled-plan replay, per group: the vector group and every benign
	// scalar instance replay the shared benign plan; crash-from-start
	// placements replay a masked plan compiled for their silent set; every
	// other faulty placement replays the benign plan's untainted delta
	// fragment and floods only the tainted remainder dynamically. Each
	// wholesale-replaying group gets its own body blackboard, shared
	// across the vertices of the group.
	var plan *flood.Plan
	var vecRS *core.ReplayShared
	scalarRS := make([]*core.ReplayShared, groups)
	scalarDP := make([]*flood.DeltaPlan, groups)
	if vectorizable && !s.spec.forceDynamic {
		// Observer-free runs flood phantom payloads where sound: every
		// consumer of the group's transmissions either replays too
		// (demultiplexing isolates groups by instance index) or promises
		// to ignore its inbox. Delta groups never phantom — their honest
		// nodes genuinely read inboxes.
		phantom := s.spec.Observer == nil
		if vectorLanes != nil {
			plan = flood.PlanFor(s.topo)
			vecRS = core.NewReplayShared(plan)
			vecRS.SetPhantom(phantom)
		}
		for i, inst := range s.spec.Instances {
			if inVector[i] {
				continue
			}
			grp := groupOf[i]
			switch {
			case len(inst.Byzantine) == 0:
				if plan == nil {
					plan = flood.PlanFor(s.topo)
				}
				rs := core.NewReplayShared(plan)
				rs.SetPhantom(phantom)
				scalarRS[grp] = rs
			case allCrashedFromStart(inst.Byzantine):
				rs := core.NewReplayShared(flood.MaskedPlanFor(s.topo, byzSet(inst.Byzantine)))
				rs.SetPhantom(phantom && allInboxIgnorers(inst.Byzantine))
				scalarRS[grp] = rs
			default:
				scalarDP[grp] = flood.DeltaPlanFor(s.topo, byzSet(inst.Byzantine))
				sharePlan(inst.Byzantine, scalarDP[grp].Base())
			}
		}
	}

	st := &batchLoopState{
		groupOf:      groupOf,
		laneOf:       laneOf,
		vectorLanes:  vectorLanes,
		inVector:     inVector,
		groups:       groups,
		vecRS:        vecRS,
		scalarRS:     scalarRS,
		scalarDP:     scalarDP,
		honest:       make([]graph.Set, b),
		honestInputs: make([]map[graph.NodeID]sim.Value, b),
		batchNodes:   make([]*sim.BatchNode, n),
		nodes:        make([]sim.Node, n),
		vnodes:       make([]*core.VectorPhaseNode, n),
		laneLeft:     make([]int, groups),
		rounds:       make([]int, b),
		retired:      make([]bool, b),
		inputsBuf:    make([]sim.Value, len(vectorLanes)),
	}
	honest := st.honest
	honestInputs := st.honestInputs
	for i := range honest {
		honest[i] = graph.NewSet()
		honestInputs[i] = make(map[graph.NodeID]sim.Value)
	}
	batchNodes := st.batchNodes
	nodes := st.nodes
	early := !s.base.FullBudget
	for _, u := range g.Nodes() {
		// One arena per vertex, shared by the vertex's co-located groups:
		// they step sequentially inside the batch node, and the arena is
		// pure message-identity state, so sharing reuses interned prefixes
		// across groups without affecting results.
		arena := graph.NewPathArena(g)
		inner := make([]sim.Node, groups)
		if vectorLanes != nil {
			inputs := make([]sim.Value, len(vectorLanes))
			for l, i := range vectorLanes {
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
			if vecRS != nil {
				vn.UseReplay(vecRS)
			}
			inner[0] = vn
			st.vnodes[u] = vn
		}
		for i, inst := range s.spec.Instances {
			if inVector[i] {
				honest[i].Add(u)
				honestInputs[i][u] = s.slabs[i][u]
				continue
			}
			if byz, ok := inst.Byzantine[u]; ok {
				inner[groupOf[i]] = byz
				st.byz = append(st.byz, byzSlot{inst: i, u: u, grp: groupOf[i]})
				continue
			}
			in := s.slabs[i][u]
			nd := s.base.NewHonestNode(s.topo, arena, u, in)
			if pn, ok := nd.(*core.PhaseNode); ok {
				if rs := scalarRS[groupOf[i]]; rs != nil {
					pn.UseReplay(rs)
				} else if dp := scalarDP[groupOf[i]]; dp != nil {
					pn.UseDeltaReplay(dp)
				} else if plan != nil {
					pn.SetReceiptHint(plan.NodeReceipts(u))
				}
				st.scalars = append(st.scalars, scalarSlot{inst: i, u: u, pn: pn})
			}
			inner[groupOf[i]] = nd
			honest[i].Add(u)
			honestInputs[i][u] = in
		}
		bn, err := sim.NewBatchNode(u, inner)
		if err != nil {
			return nil, fmt.Errorf("eval: %w", err)
		}
		bn.SetRecycling(s.spec.Observer == nil)
		batchNodes[u] = bn
		nodes[u] = bn
	}
	eng, err := sim.NewEngine(sim.Config{
		Topology:     sim.GraphTopology{G: g},
		Model:        s.base.Model,
		Equivocators: s.base.Equivocators,
		Observer:     s.spec.Observer,
		Parallel:     !s.base.Sequential,
	}, nodes)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	st.eng = eng
	for i := 0; i < b; i++ {
		st.laneLeft[groupOf[i]]++
	}
	return st, nil
}

// Run executes every instance of the batch in one shared round loop and
// judges each instance's outcome.
//
// Unless the spec demands the full budget, each instance retires from the
// loop as soon as all of its honest nodes have decided — its nodes stop
// being stepped and stop transmitting, exactly like an independent
// Session run that terminates early — and the loop ends when every
// instance has retired or the round budget is exhausted. The context is
// checked between rounds; cancellation aborts mid-execution.
//
// Poolable shapes recycle their run state as Session.Run does: back to the
// pool after a normal finish, every other engine closed here.
func (s *BatchSession) Run(ctx context.Context) (BatchOutcome, error) {
	b := len(s.spec.Instances)
	var st *batchLoopState
	var pl *sync.Pool
	if s.poolable() {
		pl = poolsFor(s.topo).pool(batchShape(s.base, s.pattern))
		if v := pl.Get(); v != nil {
			poolHits.Add(1)
			st = v.(*batchLoopState)
			if err := st.reset(s); err != nil {
				st.eng.Close()
				return BatchOutcome{}, err
			}
		} else {
			poolMisses.Add(1)
		}
	}
	if st == nil {
		var err error
		if st, err = newBatchLoopState(s); err != nil {
			return BatchOutcome{}, err
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
	// laneLeft[g] counts the group's unretired lanes; a group is retired
	// from the engine only when its last lane retires.
	eng := st.eng
	active := b
	for r := 0; r < budget && active > 0; r++ {
		if err := ctx.Err(); err != nil {
			return BatchOutcome{}, fmt.Errorf("eval: batch canceled after %d of %d rounds: %w",
				eng.Metrics().Rounds, budget, err)
		}
		eng.Step()
		if s.base.FullBudget {
			continue
		}
		for i := 0; i < b; i++ {
			if st.retired[i] || !allDecided(st.batchNodes, st.honest[i], st.groupOf[i], st.laneOf[i]) {
				continue
			}
			st.retired[i] = true
			st.rounds[i] = eng.Metrics().Rounds
			active--
			st.laneLeft[st.groupOf[i]]--
			if st.laneLeft[st.groupOf[i]] == 0 {
				for _, bn := range st.batchNodes {
					bn.Retire(st.groupOf[i])
				}
			}
		}
	}
	out := BatchOutcome{
		Outcomes: make([]Outcome, b),
		Rounds:   eng.Metrics().Rounds,
		Metrics:  eng.Metrics(),
	}
	for i := 0; i < b; i++ {
		if !st.retired[i] {
			st.rounds[i] = eng.Metrics().Rounds
		}
		if s.spec.OmitOKDecisions {
			out.Outcomes[i] = judgeInstanceLean(st.batchNodes, st.honest[i], st.honestInputs[i], st.groupOf[i], st.laneOf[i], st.rounds[i], budget)
		} else {
			out.Outcomes[i] = judgeInstance(st.batchNodes, st.honest[i], st.honestInputs[i], st.groupOf[i], st.laneOf[i], st.rounds[i], budget)
		}
	}
	if s.spec.Observer != nil {
		s.spec.Observer.Done(eng.Metrics())
	}
	recycle = pl != nil
	return out, nil
}

// laneDecision reads instance decision state at one vertex: the lane
// projection for vector groups, the plain Decider path for scalar ones.
func laneDecision(bn *sim.BatchNode, grp, lane int) (sim.Value, bool) {
	nd := bn.Instance(grp)
	if ld, ok := nd.(sim.LaneDecider); ok {
		return ld.LaneDecision(lane)
	}
	if d, ok := nd.(sim.Decider); ok {
		return d.Decision()
	}
	return 0, false
}

// allDecided reports whether every honest node of the instance mapped to
// (grp, lane) has decided.
func allDecided(batchNodes []*sim.BatchNode, honest graph.Set, grp, lane int) bool {
	for u := range honest {
		if _, ok := laneDecision(batchNodes[u], grp, lane); !ok {
			return false
		}
	}
	return true
}

// judgeInstance evaluates the consensus properties of one batch instance,
// mirroring Judge over the instance's inner nodes. The instance metrics
// carry only the round count; transmissions are shared batch-wide.
func judgeInstance(batchNodes []*sim.BatchNode, honest graph.Set, honestInputs map[graph.NodeID]sim.Value, grp, lane, rounds, budget int) Outcome {
	decisions := make(map[graph.NodeID]sim.Value)
	term := true
	for u := range honest {
		v, ok := laneDecision(batchNodes[u], grp, lane)
		if !ok {
			term = false
			continue
		}
		decisions[u] = v
	}
	return judgeOutcome(decisions, honestInputs, term, budget, sim.Metrics{Rounds: rounds})
}

// judgeInstanceLean is judgeInstance for the OmitOKDecisions path: it
// computes the three consensus properties without materializing the honest
// decisions map, and only when some property fails falls back to the full
// judge — so violating instances carry exactly the Outcome the default
// path would have produced, while the (overwhelmingly common) OK outcome
// is built allocation-free with a nil Decisions. The property booleans are
// order-independent reductions, so skipping the map changes nothing.
func judgeInstanceLean(batchNodes []*sim.BatchNode, honest graph.Set, honestInputs map[graph.NodeID]sim.Value, grp, lane, rounds, budget int) Outcome {
	term, agreement, validity := true, true, true
	var ref sim.Value
	first := true
	// valid is a 256-bit presence mask over the honest input values —
	// sim.Value is a uint8, so four words cover every possible value
	// without allocating the validInputs map.
	var valid [4]uint64
	for _, v := range honestInputs {
		valid[v>>6] |= 1 << (v & 63)
	}
	for u := range honest {
		v, ok := laneDecision(batchNodes[u], grp, lane)
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
		return judgeInstance(batchNodes, honest, honestInputs, grp, lane, rounds, budget)
	}
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

// runBatchShared is RunBatch over a caller-shared analysis (nil builds a
// private one).
func runBatchShared(ctx context.Context, spec BatchSpec, topo *graph.Analysis) (BatchOutcome, error) {
	s, err := newBatchSessionShared(spec, topo)
	if err != nil {
		return BatchOutcome{}, err
	}
	return s.Run(ctx)
}
