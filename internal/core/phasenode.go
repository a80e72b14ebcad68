package core

import (
	"fmt"

	"lbcast/internal/combin"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// PhaseNode is a non-faulty node running Algorithm 1 (t = 0) or the hybrid
// Algorithm 3 (t > 0). Execution is divided into phases, one per PhaseSpec;
// each phase runs one complete flooding session of the node's state γ
// (step (a)), then computes Zv/Nv (step (b)) and conditionally updates γ
// (step (c)). After the final phase the node decides γ.
type PhaseNode struct {
	g      *graph.Graph
	me     graph.NodeID
	f      int
	phases []PhaseSpec

	// topo is the shared read-only topology analysis the step-(b) path
	// choices are drawn from. It is immutable and safe to share across
	// all nodes of a run and across the instances of a batch.
	topo *graph.Analysis

	gamma        sim.Value
	phaseIdx     int
	roundInPhase int
	flooder      *flood.Flooder
	// store holds the current phase's receipts: the flooder's store on the
	// dynamic path, a plan-sized store filled by bulk installation on the
	// replay path. Steps (b)/(c) read only the store, so the two paths
	// share every phase-end computation.
	store   *flood.ReceiptStore
	decided bool

	// replay, when non-nil, switches the node's flooding sessions from the
	// dynamic message-by-message path to schedule replay over the shared
	// compiled plan (see UseReplay). replayStore is the run's planned store
	// view, recycled phase over phase; replayBuf is the reused outbox
	// buffer of the replay path, the fwdBuf analogue.
	replay      *ReplayShared
	replayStore *flood.ReceiptStore
	replayBuf   []sim.Outgoing
	// replayFrontier is the taint frontier of an injected-world run: phases
	// strictly before it replay the compiled plan, phases from it onward run
	// the dynamic path (see SetReplayFrontier). UseReplay sets it past every
	// phase — an un-churned replay run never crosses it.
	replayFrontier int
	// delta, when non-nil, keeps the node on the dynamic flooding path but
	// routes each delivery through the delta plan's matched-arrival fast
	// path (see UseDeltaReplay): untainted arrivals bulk-install from the
	// benign plan's records, tainted ones take the full rules (i)–(iv).
	// Mutually exclusive with replay.
	delta *flood.DeltaPlan
	// sharedStepB replaces the private stepB map for replaying nodes: all
	// replaying nodes share the frozen plan arena, so step-(b) choices are
	// analysis-global and cached once across runs and trials.
	sharedStepB *stepBCache
	// zvBuf/nvBuf/origBuf are the reusable phase-end scratch sets, and
	// scratch backs the phase-end disjoint-receipt queries.
	zvBuf, nvBuf, origBuf graph.Set
	scratch               flood.QueryScratch
	// expectHint, when set, seeds the first phase's receipt-store
	// reservation (UseDeltaReplay); later phases use the previous phase's
	// actual count.
	expectHint int

	// arena is the per-run path arena shared by every phase's flooding
	// session: interned prefixes are reused phase over phase and PathIDs
	// stay stable, which lets stepB cache chosen paths as integers.
	arena *graph.PathArena
	// ident is the per-run identity table shared by every phase's flooding
	// session (the Ident analogue of arena).
	ident *flood.Ident
	// stepB caches the deterministic step-(b) path choice per (origin,
	// exclusion set). Phases with equal F∪T (every Algorithm 3 run has
	// many) then skip the BFS entirely, and the cached PathID makes the
	// receipt read an O(1) index lookup.
	stepB map[stepBKey]graph.PathID

	// Early-decision support (EnableEarlyDecision). phaseStartGamma is
	// the value flooded in the current phase; earlyDecided/earlyValue
	// latch a decision reached before the final phase via the observed
	// unanimity rule. An early-decided node keeps executing phases
	// unchanged so that the other nodes' executions are unaffected.
	earlyOK         bool
	earlyDecided    bool
	earlyValue      sim.Value
	phaseStartGamma sim.Value
}

// stepBKey identifies one step-(b) choice: the origin u and the exclusion
// set F∪T, as a bitmask when the arena is exact (n ≤ 64) and as the
// canonical set string otherwise.
type stepBKey struct {
	u    graph.NodeID
	mask uint64
	excl string
}

var (
	_ sim.Node         = (*PhaseNode)(nil)
	_ sim.Decider      = (*PhaseNode)(nil)
	_ sim.InboxIgnorer = (*PhaseNode)(nil)
)

// NewAlgo1Node builds a non-faulty Algorithm 1 node with the given binary
// input and private topology/arena state. All nodes of an execution must
// be built with the same g and f.
func NewAlgo1Node(g *graph.Graph, f int, me graph.NodeID, input sim.Value) *PhaseNode {
	return NewAlgo1NodeShared(graph.NewAnalysis(g), f, me, input, nil)
}

// NewAlgo1NodeShared is NewAlgo1Node drawing topology data from a shared
// analysis; see newPhaseNode for the sharing contract.
func NewAlgo1NodeShared(topo *graph.Analysis, f int, me graph.NodeID, input sim.Value, arena *graph.PathArena) *PhaseNode {
	return newPhaseNode(topo, f, me, input, algo1PhasesShared(topo, f), arena)
}

// NewHybridNode builds a non-faulty Algorithm 3 node for the hybrid model
// with fault bound f, of which at most t may equivocate.
func NewHybridNode(g *graph.Graph, f, t int, me graph.NodeID, input sim.Value) *PhaseNode {
	return NewHybridNodeShared(graph.NewAnalysis(g), f, t, me, input, nil)
}

// NewHybridNodeShared is NewHybridNode drawing topology data from a shared
// analysis; see newPhaseNode for the sharing contract.
func NewHybridNodeShared(topo *graph.Analysis, f, t int, me graph.NodeID, input sim.Value, arena *graph.PathArena) *PhaseNode {
	return newPhaseNode(topo, f, me, input, hybridPhasesShared(topo, f, t), arena)
}

// newPhaseNode assembles a phase node. topo is read-only and may be shared
// by every node of a run (and every instance of a batch); it is safe for
// concurrent use. arena, when non-nil, is shared message-identity state:
// it is NOT safe for concurrent use and may only be shared among the nodes
// of one run — in practice the co-located instances of one batch node
// (same graph vertex). nil gives the node a private arena.
func newPhaseNode(topo *graph.Analysis, f int, me graph.NodeID, input sim.Value, phases []PhaseSpec, arena *graph.PathArena) *PhaseNode {
	g := topo.Graph()
	// A nil arena stays nil until the first dynamic flooding round: a node
	// switched to replay (UseReplay) adopts the plan's frozen arena
	// instead and would never touch a private one.
	return &PhaseNode{
		g:      g,
		me:     me,
		f:      f,
		phases: phases,
		topo:   topo,
		gamma:  input,
		arena:  arena,
		// ident and stepB are created lazily by the dynamic path; a
		// replaying node never needs them (its value-flood body IDs are
		// constants and its step-(b) cache is shared on the analysis).
	}
}

// PhaseRounds returns the engine rounds one phase occupies.
func PhaseRounds(n int) int { return flood.Rounds(n) }

// Algo1Rounds returns the total engine rounds Algorithm 1 needs on an
// n-node graph with fault bound f. The phases are counted, not enumerated.
func Algo1Rounds(n, f int) int {
	return int(combin.CountSubsetsUpTo(n, f).Int64()) * PhaseRounds(n)
}

// HybridRounds returns the total engine rounds Algorithm 3 needs, counting
// its (F, T) phases without enumerating them.
func HybridRounds(n, f, t int) int {
	return int(combin.CountFTPairs(n, f, t).Int64()) * PhaseRounds(n)
}

// ID returns the node id.
func (nd *PhaseNode) ID() graph.NodeID { return nd.me }

// Gamma exposes the current state γv (for tests and tracing).
func (nd *PhaseNode) Gamma() sim.Value { return nd.gamma }

// UseReplay switches the node's step-(a) flooding sessions to replay mode
// over the shared compiled plan: receipts are bulk-installed from the
// plan's schedule and outboxes materialized from its templates, with the
// phase bodies drawn from the run's ReplayShared blackboard. The node
// adopts the plan's frozen arena as its run arena (every path it will ever
// look up is already interned there). Replay is an execution strategy, not
// a semantics change — it is only sound when the whole flood is fault-free
// (every node initiates, every relay forwards correctly), which the caller
// asserts by calling this; eval enables it exactly for executions with no
// Byzantine overrides. Must be called before the first Step, and every
// honest node of the run must share the same ReplayShared.
func (nd *PhaseNode) UseReplay(rs *ReplayShared) {
	nd.replay = rs
	nd.replayFrontier = len(nd.phases)
	nd.arena = rs.plan.Arena()
	nd.sharedStepB = replayStepBCache(nd.topo, rs.plan)
	nd.replayBuf = make([]sim.Outgoing, 0, rs.plan.MaxRoundReceipts(nd.me))
}

// SetReplayFrontier caps plan replay at phase index frontier: phases
// [0, frontier) replay the compiled plan, phases [frontier, ...) run the
// dynamic message-by-message path. This is the per-run taint frontier of
// fault injection — a topology event at engine round R invalidates the plan
// from the phase containing R onward (the plan's schedule assumes the static
// adjacency), while every earlier phase's transmissions were routed unmasked
// and replay byte-identically. The switch at a phase boundary is clean: the
// dynamic path's phase-start round reads no inbox, the frozen plan arena
// already holds every simple path the masked flood can traverse, and the
// step-(b) choices are drawn from the static topology on both paths.
//
// A node with a finite frontier no longer promises sim.InboxIgnorer (its
// dynamic phases genuinely read deliveries), so the engine materializes its
// inbox throughout — including the replayed prefix, where the deliveries are
// simply never read. Must be called after UseReplay and before the first
// Step; pooled runs re-arm it on every reset (schedules differ per run).
func (nd *PhaseNode) SetReplayFrontier(frontier int) {
	if frontier < 0 {
		frontier = 0
	}
	if frontier > len(nd.phases) {
		frontier = len(nd.phases)
	}
	nd.replayFrontier = frontier
}

// UseDeltaReplay switches the node's step-(a) flooding sessions to delta
// replay over the given plan fragment: the node still runs its full
// dynamic flooder (tamper and equivocation are value-dependent, so every
// arrival must be inspected), but deliveries matching the next untainted
// compiled record are installed and forwarded straight from the benign
// plan — see flood.DeliverDelta. The node adopts the benign plan's frozen
// arena (it holds every simple path of the graph, so all interning hits)
// and the plan's shared step-(b) cache, and seeds its store reservation
// with the benign receipt count, an upper bound for any fault pattern.
// Must be called before the first Step; mutually exclusive with UseReplay.
func (nd *PhaseNode) UseDeltaReplay(dp *flood.DeltaPlan) {
	nd.delta = dp
	nd.arena = dp.Base().Arena()
	nd.sharedStepB = replayStepBCache(nd.topo, dp.Base())
	nd.expectHint = dp.Base().NodeReceipts(nd.me)
}

// Reset returns the node to its initial protocol state with a fresh input,
// recycling every buffer it grew during previous runs: the planned store
// view (re-emptied at the next phase start), the replay outbox buffer, the
// flooder and its receipt store on the dynamic path, the phase-end scratch
// sets and query scratch, and every step-(b) cache (whose entries are
// run-independent facts about the topology and stay valid). The run-level
// wiring (UseReplay, UseDeltaReplay, EnableEarlyDecision) is preserved, so
// a reset node re-runs under exactly the configuration it was pooled with.
func (nd *PhaseNode) Reset(input sim.Value) {
	nd.gamma = input
	nd.phaseIdx = 0
	nd.roundInPhase = 0
	nd.decided = false
	nd.earlyDecided = false
	nd.earlyValue = 0
	nd.phaseStartGamma = 0
}

// IgnoresInbox implements sim.InboxIgnorer: a replaying node draws every
// arrival from the compiled plan and never reads its inbox. A node whose
// replay is capped by a taint frontier (SetReplayFrontier) reads deliveries
// in its dynamic phases, so it does not qualify — and the contract is
// monotone (false may become true, never the reverse), which the frontier
// respects because it is set before the first Step and only lowered.
func (nd *PhaseNode) IgnoresInbox() bool {
	return nd.replay != nil && nd.replayFrontier >= len(nd.phases)
}

// EnableEarlyDecision lets the node decide before the final phase via the
// observed-unanimity rule: at the end of a phase, if the node received the
// value x it flooded this phase from every other node along f+1 internally
// node-disjoint paths, then (with at most f actual faults) at least one
// path per node is fault-free, so every non-faulty node's state was x at
// the start of the phase. Unanimity of the non-faulty states is preserved
// by step (c) under any Byzantine behavior — adopting ¬x would require a
// receipt of ¬x along f+1 node-disjoint paths, one of which would be
// fault-free with a non-faulty origin — so the final decision is already
// determined to be x and the node may report it now.
//
// The node keeps executing all phases identically after deciding early
// (so other nodes' executions are byte-for-byte unchanged); only
// Decision() is affected. The engine layer stops the run once every
// honest node reports a decision.
func (nd *PhaseNode) EnableEarlyDecision() { nd.earlyOK = true }

// Decision reports the decided output: after all phases complete, or as
// soon as the early-decision rule fires (EnableEarlyDecision).
func (nd *PhaseNode) Decision() (sim.Value, bool) {
	if nd.decided {
		return nd.gamma, true
	}
	if nd.earlyDecided {
		return nd.earlyValue, true
	}
	return 0, false
}

// Step advances the node by one synchronous round.
func (nd *PhaseNode) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	if nd.decided || nd.phaseIdx >= len(nd.phases) {
		nd.decided = true
		return nil
	}
	var out []sim.Outgoing
	if nd.replay != nil && nd.phaseIdx < nd.replayFrontier {
		out = nd.replayStep()
	} else {
		out = nd.dynamicStep(inbox)
	}
	nd.roundInPhase++
	if nd.roundInPhase == PhaseRounds(nd.g.N()) {
		nd.endPhase()
		nd.roundInPhase = 0
		nd.phaseIdx++
		if nd.phaseIdx == len(nd.phases) {
			nd.decided = true
		}
	}
	return out
}

// dynamicStep runs one round of the message-by-message flooding path.
func (nd *PhaseNode) dynamicStep(inbox []sim.Delivery) []sim.Outgoing {
	var out []sim.Outgoing
	switch nd.roundInPhase {
	case 0:
		// Step (a): initiate flooding of γv. One flooder serves every
		// phase: flooding structure repeats phase over phase, so recycling
		// it (receipts and acceptance state cleared, index capacity kept)
		// leaves every append of the new phase landing in pre-grown
		// storage. The first phase sizes from the hint, when one was
		// provided (a compiled plan's exact per-node count).
		if nd.delta != nil {
			flood.NoteDeltaReplaySession()
		} else {
			flood.NoteDynamicSession()
		}
		if nd.arena == nil {
			nd.arena = graph.NewPathArena(nd.g)
		}
		if nd.ident == nil {
			nd.ident = flood.NewIdent()
		}
		if nd.flooder == nil {
			switch {
			case nd.delta != nil:
				nd.flooder = flood.NewOnPlan(nd.delta.Base(), nd.me, nd.ident)
			case nd.replay != nil: // past the taint frontier
				nd.flooder = flood.NewOnPlan(nd.replay.plan, nd.me, nd.ident)
			default:
				nd.flooder = flood.NewWithState(nd.g, nd.me, nd.arena, nd.ident)
			}
			nd.flooder.Expect(nd.expectHint)
		} else {
			nd.flooder.Recycle()
		}
		// Re-point the receipt store every phase: a taint-frontier node
		// arrives here with nd.store still on its replay store from the
		// replayed prefix, and must read this phase's receipts from the
		// flooder instead.
		nd.store = nd.flooder.Store()
		nd.phaseStartGamma = nd.gamma
		out = nd.flooder.Start(flood.CanonValueBody(nd.gamma))
	case 1:
		// Initiations arrive now; after processing, substitute the
		// default message for silent neighbors.
		out = nd.deliver(inbox)
		out = nd.flooder.AppendMissing(out, func(graph.NodeID) flood.Body {
			return flood.CanonValueBody(sim.DefaultValue)
		})
	default:
		out = nd.deliver(inbox)
	}
	return out
}

// deliver routes one round's inbox through the flooder: the delta
// matched-arrival path when delta replay is wired, the plain dynamic rules
// otherwise. Both produce byte-identical outcomes; delta only changes how
// much per-message work the untainted majority costs.
func (nd *PhaseNode) deliver(inbox []sim.Delivery) []sim.Outgoing {
	if nd.delta != nil {
		return nd.flooder.DeliverDelta(nd.delta, nd.roundInPhase, inbox)
	}
	return nd.flooder.Deliver(inbox)
}

// replayStep runs one round of the plan-replay path: at phase start it
// publishes this node's body to the run blackboard and opens an
// exact-sized store; every round then bulk-installs the plan's scheduled
// arrivals and materializes the precompiled outbox. The emitted
// transmissions are byte-identical to the dynamic path's, so observers,
// metrics, and any dynamically-flooding co-instances of a batch see the
// same execution.
func (nd *PhaseNode) replayStep() []sim.Outgoing {
	plan := nd.replay.plan
	if nd.roundInPhase == 0 {
		flood.NoteReplaySession()
		if nd.replayStore == nil {
			nd.replayStore = plan.PlannedStore(nd.me, nd.ident)
		} else {
			nd.replayStore.ResetPlanned()
		}
		nd.store = nd.replayStore
		nd.phaseStartGamma = nd.gamma
		nd.replay.bodies[nd.me] = flood.CanonValueBody(nd.gamma)
	}
	var out []sim.Outgoing
	if nd.replay.phantom {
		out = plan.ReplayRoundPhantom(nd.me, nd.roundInPhase, nd.replay.bodies, nd.store, nd.replayBuf[:0])
	} else {
		out = plan.ReplayRound(nd.me, nd.roundInPhase, nd.replay.bodies, nd.store, nd.replayBuf[:0])
	}
	nd.replayBuf = out
	return out
}

// endPhase runs steps (b) and (c) of the current phase.
func (nd *PhaseNode) endPhase() {
	spec := nd.phases[nd.phaseIdx]
	excl := spec.F.Union(spec.T)
	st := nd.store
	if nd.earlyOK && !nd.earlyDecided && nd.observedUnanimity(st) {
		nd.earlyDecided = true
		nd.earlyValue = nd.phaseStartGamma
	}

	// Step (b): for each u ∈ V−T pick the (deterministic) uv-path Puv
	// that excludes F∪T and read the value received along it. Zv collects
	// the nodes whose value arrived as 0; everything else (including
	// nodes whose Puv delivered nothing) lands in Nv. The sets live only
	// within this phase end, so the buffers are reused phase over phase.
	zv := resetSet(&nd.zvBuf)
	nv := resetSet(&nd.nvBuf)
	for _, u := range nd.g.Nodes() {
		if spec.T.Contains(u) {
			continue
		}
		val, ok := nd.valueAlongChosenPath(u, excl, st)
		if ok && val == sim.Zero {
			zv.Add(u)
		} else {
			nv.Add(u)
		}
	}

	// Step (c): select Av/Bv by the four cases, using ϕ = f − |T|.
	av, bv := selectAvBv(zv, nv, spec.F, nd.f, nd.f-spec.T.Len())

	if !bv.Contains(nd.me) {
		return
	}
	// If γ was received along f+1 node-disjoint Avv-paths excluding F∪T,
	// adopt it. (Both values qualifying simultaneously is impossible when
	// the fault bound holds; checking 0 first keeps ties deterministic.)
	for _, delta := range []sim.Value{sim.Zero, sim.One} {
		fil := flood.Filter{
			Origins: av,
			Body:    flood.ValueKeyID(delta),
			Exclude: excl,
		}
		if nd.scratch.ReceivedOnDisjointPaths(st, fil, nd.f+1, flood.DisjointExceptLast) {
			nd.gamma = delta
			return
		}
	}
}

// observedUnanimity implements the early-decision predicate: the value x
// this node flooded at the start of the phase was also received from every
// other node along f+1 internally node-disjoint paths (no exclusions).
// With at most f actual faults, at least one of any f+1 internally
// disjoint paths has a fault-free interior, so a matching receipt proves
// the origin really flooded x — over all origins, that every non-faulty
// node's state is x.
func (nd *PhaseNode) observedUnanimity(st *flood.ReceiptStore) bool {
	want := flood.ValueKeyID(nd.phaseStartGamma)
	orig := resetSet(&nd.origBuf)
	for _, u := range nd.g.Nodes() {
		if u == nd.me {
			continue
		}
		clear(orig)
		orig.Add(u)
		fil := flood.Filter{
			Origins: orig,
			Body:    want,
		}
		if !nd.scratch.ReceivedOnDisjointPaths(st, fil, nd.f+1, flood.InternallyDisjoint) {
			return false
		}
	}
	return true
}

// selectAvBv implements the four-case Av/Bv selection of step (c)
// (Algorithm 1 uses ϕ = f; Algorithm 3 uses ϕ = f − |T|):
//
//	case 1: |Zv∩F| ≤ ⌊ϕ/2⌋ and |Nv| > f  → Av = Nv, Bv = Zv
//	case 2: |Zv∩F| ≤ ⌊ϕ/2⌋ and |Nv| ≤ f  → Av = Zv, Bv = Nv
//	case 3: |Zv∩F| > ⌊ϕ/2⌋ and |Zv| > f  → Av = Zv, Bv = Nv
//	case 4: |Zv∩F| > ⌊ϕ/2⌋ and |Zv| ≤ f  → Av = Nv, Bv = Zv
func selectAvBv(zv, nv, fSet graph.Set, f, phi int) (av, bv graph.Set) {
	// Count |Zv∩F| directly: materializing the intersection set would
	// allocate once per lane per phase end on the replay hot path.
	zf := 0
	for u := range zv {
		if fSet.Contains(u) {
			zf++
		}
	}
	switch {
	case zf <= phi/2 && nv.Len() > f:
		return nv, zv
	case zf <= phi/2 && nv.Len() <= f:
		return zv, nv
	case zf > phi/2 && zv.Len() > f:
		return zv, nv
	default: // zf > phi/2 && zv.Len() <= f
		return nv, zv
	}
}

// chosenPath returns the interned step-(b) path choice for origin u under
// exclusion set excl, NoPath if none exists. Dynamic nodes memoize per
// node (their arena is private, so PathIDs are node-local); replaying
// nodes share the analysis-wide cache over the frozen plan arena.
func (nd *PhaseNode) chosenPath(u graph.NodeID, excl graph.Set) graph.PathID {
	if nd.sharedStepB != nil {
		return nd.sharedStepB.chosen(nd.topo, nd.arena, u, nd.me, excl)
	}
	if nd.stepB == nil {
		nd.stepB = make(map[stepBKey]graph.PathID)
	}
	return chosenStepBPath(nd.topo, nd.arena, nd.stepB, u, nd.me, excl)
}

// chosenStepBPath is the step-(b) path choice shared by the scalar
// PhaseNode and the vector lane group — one implementation, so the
// batched and independent executions can never choose different paths.
// The deterministic BFS result for (u, me, excl) is interned into arena
// and memoized in stepB.
func chosenStepBPath(topo *graph.Analysis, arena *graph.PathArena, stepB map[stepBKey]graph.PathID, u, me graph.NodeID, excl graph.Set) graph.PathID {
	key := stepBKey{u: u}
	if arena.Exact() {
		key.mask = graph.SetMask(excl)
	} else {
		key.excl = excl.String()
	}
	if pid, ok := stepB[key]; ok {
		return pid
	}
	pid := graph.NoPath
	if puv := topo.ShortestPathExcluding(u, me, excl); puv != nil {
		pid = arena.Intern(puv)
	}
	stepB[key] = pid
	return pid
}

// valueAlongChosenPath implements the step-(b) read: choose a single
// uv-path excluding excl (BFS-shortest, hence identical across phases and
// runs) and return the value recorded along exactly that path, if any.
func (nd *PhaseNode) valueAlongChosenPath(u graph.NodeID, excl graph.Set, st *flood.ReceiptStore) (sim.Value, bool) {
	if u == nd.me {
		return nd.gamma, true
	}
	pid := nd.chosenPath(u, excl)
	if pid == graph.NoPath {
		// Cannot happen on graphs satisfying the theorem's conditions
		// (Lemma 5.4 / D.4); treat as "nothing received".
		return 0, false
	}
	return st.ValueAt(pid)
}

// String renders a compact description for traces.
func (nd *PhaseNode) String() string {
	return fmt.Sprintf("phasenode(%d, phase %d/%d, γ=%s)", nd.me, nd.phaseIdx, len(nd.phases), nd.gamma)
}
