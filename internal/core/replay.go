package core

import (
	"math"
	"sync"

	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file holds the shared state of a replayed execution. A compiled
// flood.Plan fixes the complete value-blind skeleton of every flooding
// phase — who accepts which path in which round, and what is forwarded —
// so the only live information a replaying node needs from its peers is
// the body each origin floods this phase. ReplayShared is that channel: a
// per-run blackboard of phase bodies, written by each node at its own
// phase start and read by every node from the following round on. It also
// records where the run leaves the plan (SetTaint): the value-faulty
// nodes' overlay, and the first phase a topology event invalidates.
//
// The synchronization argument: all honest nodes of a replayed run change
// phase in the same engine round (phases have a fixed round count and all
// nodes start together), so every write to bodies[u] happens in the
// phase-start round, while reads of bodies[u] (installing receipts whose
// origin is u, materializing forwards of u's body) happen in strictly
// later rounds — the first arrival from u is at graph distance ≥ 1. The
// engine steps a run's nodes one after another on one goroutine, so
// program order puts every write before the reads of later rounds, and
// within the phase-start round each node writes only its own slot. The
// overlay's table follows the same order (see flood.Overlay).

// ReplayShared is how one lane group uses a compiled plan: the plan, the
// per-phase origin-body blackboard, the phantom toggle, and the taint (an
// optional overlay of the value-faulty nodes' sends and the taint
// frontier). A phase replays the plan wholesale when the group has no
// overlay and the phase lies before the frontier; otherwise it floods on
// the plan's frozen arena — from the overlay's body table for every round
// whose faulty sends fit, dynamically for the rest. One ReplayShared
// serves all nodes of one run (or all vertices of one batch lane group);
// it must not be shared across concurrent runs.
type ReplayShared struct {
	plan *flood.Plan
	// bodies[u] is the body node u floods in the current phase. Slots are
	// overwritten phase over phase; see the file comment for why no
	// read can see a slot before its phase's write.
	bodies []flood.Body
	// phantom switches the run's replayed outboxes to the phantom wire
	// protocol (flood.Plan.ReplayRoundPhantom): transmissions carry the
	// sim.Phantom sentinel instead of materialized messages. See SetPhantom.
	phantom bool
	// overlay, when non-nil, is the run's body table over plan for its
	// value-faulty nodes; frontier is the first phase that does not replay
	// (0 with an overlay). See SetTaint.
	overlay  *flood.Overlay
	frontier int
}

// NewReplayShared returns the shared replay state for one run over the
// given plan. For a masked plan the silent origins' blackboard slots are
// prefilled with the canonical default body: a crashed node never
// publishes a phase body, but the default-message rule makes every honest
// node act as if it had flooded the default value, and the compiled
// schedule carries those synthesized receipts under the silent origin.
// The slots are never overwritten (only honest nodes write, each to its
// own slot), so the prefill survives pooled reuse.
func NewReplayShared(plan *flood.Plan) *ReplayShared {
	rs := &ReplayShared{plan: plan, bodies: make([]flood.Body, plan.Graph().N()), frontier: math.MaxInt}
	for u := range plan.Mask().All() {
		rs.bodies[u] = flood.CanonValueBody(sim.DefaultValue)
	}
	return rs
}

// Plan returns the compiled plan the run replays.
func (rs *ReplayShared) Plan() *flood.Plan { return rs.plan }

// SetPhantom toggles phantom transmissions for the run. In a replayed run
// every consumer of a replaying node's transmissions is itself replaying
// (it draws arrivals from the plan and ignores its inbox), so the payloads
// exist only to be counted — phantom mode stops materializing them while
// leaving the transmission and delivery schedule, and hence every metric
// and decision, byte-identical. It is only sound when no observer is
// attached (observers retain and render payloads) and no dynamically
// flooding node reads the run's inboxes; eval enables it exactly for
// observer-free runs, where Byzantine co-instances of a batch demux their
// own parts without reading the replayed lanes'.
func (rs *ReplayShared) SetPhantom(on bool) { rs.phantom = on }

// SetTaint marks where the group's executions leave the plan. Phases
// [0, frontier) replay it wholesale; the rest flood on its frozen arena,
// which already holds every path they can traverse. With an overlay ov of
// rs's plan no phase replays (frontier is ignored): tamper, equivocation
// and forgery are value-dependent, so each phase floods on the plan's
// arena, each round taken from ov's body table while the faulty nodes'
// sends fit it and from the inbox by the dynamic rules after. A finite
// frontier without an overlay is fault injection's: a topology event at
// engine round R invalidates the plan from the phase containing R onward,
// while every earlier phase was routed unmasked and replays
// byte-identically. The switch at a phase boundary is clean: the dynamic
// phase-start round reads no inbox, and the step-(b) choices come from the
// static topology either way.
//
// A node of a tainted group reads deliveries in its dynamic phases, so it
// no longer promises sim.InboxIgnorer and the engine fills its inbox
// throughout. Call before the first Step of a run; pooled runs re-arm the
// frontier on every reset (schedules differ per run), and a node's Reset
// re-arms the overlay.
func (rs *ReplayShared) SetTaint(ov *flood.Overlay, frontier int) {
	if ov != nil {
		frontier = 0
	}
	rs.overlay, rs.frontier = ov, frontier
}

// Taint returns the group's overlay (nil without one) and its taint
// frontier, as SetTaint set them.
func (rs *ReplayShared) Taint() (*flood.Overlay, int) { return rs.overlay, rs.frontier }

// Phantom reports whether the group's replayed outboxes are phantom.
func (rs *ReplayShared) Phantom() bool { return rs.phantom }

// stepBCacheKey keys the run-crossing replay step-(b) caches in
// Analysis.Memo, one per plan: PathIDs are arena-local, and every plan
// (benign or masked) has its own arena, so a choice interned against one
// plan's arena must never be served to nodes replaying another's.
type stepBCacheKey struct{ plan *flood.Plan }

// stepBChoice identifies one step-(b) choice: origin, choosing node, and
// the exclusion set.
type stepBChoice struct {
	u, me graph.NodeID
	excl  graph.Set
}

// stepBCache memoizes step-(b) path choices as PathIDs of one arena, so
// phases with equal F∪T (every Algorithm 3 run has many) skip the BFS and
// the receipt read is an O(1) index lookup. A node flooding on a private
// arena keeps a private instance (its PathIDs are node-local). Every node
// on a plan's frozen arena — replaying, on an overlay, or past a taint
// frontier — shares that plan's instance on the analysis
// (replayStepBCache), since the interned choice for (u, me, excl) is then
// a constant across nodes, runs, trials and sweep cells. Guarded for concurrent trials; after the
// first run every access is a read.
type stepBCache struct {
	mu sync.RWMutex
	m  map[stepBChoice]graph.PathID
}

func newStepBCache() *stepBCache {
	return &stepBCache{m: make(map[stepBChoice]graph.PathID)}
}

// replayStepBCache returns the analysis's shared step-(b) cache for the
// given plan's arena.
func replayStepBCache(topo *graph.Analysis, plan *flood.Plan) *stepBCache {
	return topo.Memo(stepBCacheKey{plan: plan}, func() any { return newStepBCache() }).(*stepBCache)
}

// chosen returns the interned step-(b) path choice for (u, me, excl) over
// arena, computing and caching it on first use. The BFS is deterministic,
// so concurrent fills of a shared cache store identical values.
func (c *stepBCache) chosen(topo *graph.Analysis, arena *graph.PathArena, u, me graph.NodeID, excl graph.Set) graph.PathID {
	k := stepBChoice{u, me, excl}
	c.mu.RLock()
	pid, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		return pid
	}
	pid = graph.NoPath
	if puv := topo.ShortestPathExcluding(u, me, excl); puv != nil {
		// The benign plan's frozen arena holds every simple path of the
		// graph (the compile flood traverses them all), so this is a pure
		// lookup. A masked plan's arena holds only the paths its crash
		// world carries: a choice routed through a silent interior interns
		// to NoPath, which reads as "nothing received" — exactly what the
		// dynamic crash execution observes along that path.
		pid = arena.Intern(puv)
	}
	c.mu.Lock()
	c.m[k] = pid
	c.mu.Unlock()
	return pid
}
