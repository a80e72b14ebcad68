package eval

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file implements run-state recycling for the run driver (batch.go;
// a Session is a one-instance batch): a registry of sync.Pools, attached
// to the graph.Analysis (the same anchor the compiled plan and the shared
// step-(b) cache live on), holding fully-built run objects — protocol
// nodes, engine, replay blackboards, receipt stores — keyed by the shape
// they were built for. A recycled run re-runs after an explicit reset pass
// (engine counters and inboxes, node protocol state, per-run toggles)
// instead of reconstructing everything; every buffer the previous run grew
// (receipt stores, outbox buffers, query scratch, merge slabs) is reused
// at its high-water capacity, which is what takes the steady state to near
// zero allocations per decision.
//
// Recycling is an execution strategy, not a semantics change: the reset
// contract of every pooled component restores exactly the state a fresh
// construction would have (enforced byte-for-byte by the golden and
// replay-parity twice-through-pool suites). A run pools when every
// instance engages a replay tier (see Spec.replayMode). Each Byzantine
// placement keys its own pool by canonical pattern WITH its replay kind:
// recycled run state must never cross fault shapes, since distinct crash
// masks replay distinct plans (distinct arenas, blackboard prefills, and
// step-(b) caches) and a crash pattern wired for masked replay has
// different honest wiring than the same vertices wired for an overlay. The
// honest state is closed under reset, and the caller-owned adversary nodes
// are never pooled: every recycled run re-plugs the current spec's
// overrides into their slots.

// runShape keys a pool: every spec field that influences the constructed
// run state. Two specs with equal shapes differ only in inputs, observer,
// and Byzantine node values, all of which the reset pass re-applies per
// run.
type runShape struct {
	alg        Algorithm
	f, t       int
	model      sim.Model
	equiv      string
	rounds     int
	fullBudget bool
	// pattern is the canonical kind-marked Byzantine placement of every
	// instance (see byzPattern). Distinct placements build distinct lane
	// groupings, adversary slots, and replay wiring, so each keys its own
	// pool; the instance count is implied by the pattern (b-1 separators).
	pattern string
	// churn marks runs carrying a fault-injection schedule. Churn runs
	// route through a masked topology and replay only to the taint
	// frontier, so their state must never cross into (or be drawn from) a
	// static-world pool; the schedule contents themselves are re-armed per
	// reset, like inputs.
	churn bool
}

// runPoolsKey anchors the pool registry in Analysis.Memo.
type runPoolsKey struct{}

// runPools is the per-analysis pool registry.
type runPools struct {
	mu sync.Mutex
	m  map[runShape]*sync.Pool
}

// poolsFor returns the analysis's pool registry, creating it on first use.
func poolsFor(topo *graph.Analysis) *runPools {
	return topo.Memo(runPoolsKey{}, func() any {
		return &runPools{m: make(map[runShape]*sync.Pool)}
	}).(*runPools)
}

// pool returns the pool for shape, creating it on first use. The pools
// have no New func: a nil Get means "build fresh" at the call site, which
// is also what counts the hit/miss statistics.
func (p *runPools) pool(shape runShape) *sync.Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	pl, ok := p.m[shape]
	if !ok {
		pl = &sync.Pool{}
		p.m[shape] = pl
	}
	return pl
}

// Pool hit/miss counters, process-wide across every analysis (the lbcastd
// /metrics endpoint exports them).
var (
	poolHits   atomic.Uint64
	poolMisses atomic.Uint64
)

// ReadPoolStats returns the cumulative run-pool hit and miss counts: a hit
// recycled a previously-built run's state, a miss built fresh.
func ReadPoolStats() (hits, misses uint64) {
	return poolHits.Load(), poolMisses.Load()
}

// planSetter is the optional adversary capability overlay and Algorithm 2
// runs engage: the honest nodes of such a run flood on the benign plan's
// frozen arena, and an
// adversary relaying over the same plan reads and writes path hints they
// verify in O(1). adversary's relaying strategies implement it; anything
// else keeps establishing paths on its own.
type planSetter interface{ SetPlan(*flood.Plan) }

// handPlan hands p to override nd if it can use it.
func handPlan(nd sim.Node, p *flood.Plan) {
	if ps, ok := nd.(planSetter); ok {
		ps.SetPlan(p)
	}
}

// sharePlan hands p to every override that can use it.
func sharePlan(byz map[graph.NodeID]sim.Node, p *flood.Plan) {
	for _, nd := range byz {
		handPlan(nd, p)
	}
}

// shape derives the batch's pool key from its shared parameters and its
// Byzantine placement pattern.
func (s *BatchSession) shape() runShape {
	return runShape{
		alg:        s.base.Algorithm,
		f:          s.base.F,
		t:          s.base.T,
		model:      s.base.Model,
		equiv:      s.base.Equivocators.String(),
		rounds:     s.base.Rounds,
		fullBudget: s.base.FullBudget,
		pattern:    s.pattern,
		churn:      !s.base.Churn.Empty(),
	}
}

// byzPattern renders the batch's Byzantine placement canonically: per
// instance (';'-separated), its faulty vertices in ascending order, each
// marked with its replay kind — 'c' for crash-from-start faults (the shape
// masked plans compile), 'd' for everything value-faulty (the shape the
// overlay covers). Two batches with equal patterns (and equal shared
// parameters) build structurally identical run state: the same lane
// grouping, the same replay wiring, the same adversary slots; only inputs,
// adversary node values, and the observer differ, all of which a recycled
// run's reset pass re-applies. The pattern is therefore the batch-specific
// part of the run-pool key.
func byzPattern(instances []BatchInstance) string {
	var sb strings.Builder
	var vs []int
	for i, inst := range instances {
		if i > 0 {
			sb.WriteByte(';')
		}
		vs = vs[:0]
		for u := range inst.Byzantine {
			vs = append(vs, int(u))
		}
		sort.Ints(vs)
		for k, u := range vs {
			if k > 0 {
				sb.WriteByte(',')
			}
			kind := byte('d')
			if c, ok := inst.Byzantine[graph.NodeID(u)].(crashedFromStart); ok && c.CrashedFromStart() {
				kind = 'c'
			}
			sb.WriteByte(kind)
			sb.WriteString(strconv.Itoa(u))
		}
	}
	return sb.String()
}
