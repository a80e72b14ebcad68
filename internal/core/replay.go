package core

import (
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
// phase start and read by every node from the following round on.
//
// The synchronization argument: all honest nodes of a replayed run change
// phase in the same engine round (phases have a fixed round count and all
// nodes start together), so every write to bodies[u] happens in the
// phase-start round, while reads of bodies[u] (installing receipts whose
// origin is u, materializing forwards of u's body) happen in strictly
// later rounds — the first arrival from u is at graph distance ≥ 1. The
// engine steps a run's nodes one after another on one goroutine, so
// program order puts every write before the reads of later rounds, and
// within the phase-start round each node writes only its own slot.

// ReplayShared is the run-wide state of a replayed execution: the compiled
// plan plus the per-phase origin-body blackboard. One ReplayShared serves
// all nodes of one run (or all vertices of one batch lane group); it must
// not be shared across concurrent runs.
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
	rs := &ReplayShared{plan: plan, bodies: make([]flood.Body, plan.Graph().N())}
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
// on a plan's frozen arena — replaying, delta, or past a taint frontier —
// shares that plan's instance on the analysis (replayStepBCache), since
// the interned choice for (u, me, excl) is then a constant across nodes,
// runs, trials and sweep cells. Guarded for concurrent trials; after the
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
