package eval

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lbcast/internal/core"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file implements run-state recycling for the steady-state decision
// pipeline: a registry of sync.Pools, attached to the graph.Analysis (the
// same anchor the compiled plan and the shared step-(b) cache live on),
// holding fully-built run objects — protocol nodes, engine, replay
// blackboard, receipt stores — keyed by the spec shape they were built
// for. A recycled run re-runs after an explicit reset pass (engine
// counters and inboxes, node protocol state, per-run toggles) instead of
// reconstructing everything; every buffer the previous run grew (receipt
// stores, outbox buffers, query scratch, merge slabs) is reused at its
// high-water capacity, which is what takes the steady state to near zero
// allocations per decision.
//
// Recycling is an execution strategy, not a semantics change: the reset
// contract of every pooled component restores exactly the state a fresh
// construction would have (enforced byte-for-byte by the golden and
// replay-parity twice-through-pool suites). Sessions pool when they
// qualify for any replay mode (benign, masked, or delta — see replayMode);
// batches pool for the phase-based algorithms with any Byzantine
// placement. Each placement keys its own pool by canonical pattern WITH
// its replay kind: recycled run state must never cross fault shapes, since
// distinct crash masks replay distinct plans (distinct arenas, blackboard
// prefills, and step-(b) caches) and a crash pattern wired for masked
// replay has different honest wiring than the same vertices wired for
// delta. The honest state is closed under reset, and the caller-owned
// adversary nodes are never pooled: every recycled run re-plugs the
// current spec's overrides into their slots.

// runShape keys a pool: every spec field that influences the constructed
// run state. Two specs with equal shapes differ only in inputs, observer,
// and Byzantine node values, all of which the reset pass re-applies per
// run.
type runShape struct {
	kind       byte // 's' session, 'b' batch
	alg        Algorithm
	f, t       int
	model      sim.Model
	equiv      string
	rounds     int
	fullBudget bool
	sequential bool
	// pattern is the canonical kind-marked Byzantine placement — per
	// instance for a batch (see byzPattern), for the single execution of a
	// session (see byzKindPattern); empty for all-benign sessions.
	// Distinct placements build distinct lane groupings, adversary slots,
	// and replay wiring, so each keys its own pool.
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

// sessionShape derives the pool key of a replay-qualified session spec.
// The pattern field carries the kind-marked fault placement, so a crash
// mask, the same vertices value-faulty, and the benign world can never
// share recycled state.
func sessionShape(spec Spec) runShape {
	return runShape{
		kind:       's',
		alg:        spec.Algorithm,
		f:          spec.F,
		t:          spec.T,
		model:      spec.Model,
		equiv:      spec.Equivocators.String(),
		rounds:     spec.Rounds,
		fullBudget: spec.FullBudget,
		sequential: spec.Sequential,
		pattern:    byzKindPattern(spec.Byzantine),
		churn:      !spec.Churn.Empty(),
	}
}

// appendByzKindPattern renders one execution's Byzantine placement
// canonically into sb, with a replay-kind marker per vertex: 'c' for
// crash-from-start faults (the shape masked plans compile) and 'd' for
// everything value-faulty (the shape delta replay covers). The marker is
// part of every pool key: two placements on the same vertices but of
// different kinds wire honest nodes differently and must never share
// recycled run state.
func appendByzKindPattern(sb *strings.Builder, byz map[graph.NodeID]sim.Node) {
	vs := make([]int, 0, len(byz))
	for u := range byz {
		vs = append(vs, int(u))
	}
	sort.Ints(vs)
	for i, u := range vs {
		if i > 0 {
			sb.WriteByte(',')
		}
		kind := byte('d')
		if c, ok := byz[graph.NodeID(u)].(crashedFromStart); ok && c.CrashedFromStart() {
			kind = 'c'
		}
		sb.WriteByte(kind)
		sb.WriteString(strconv.Itoa(u))
	}
}

// byzKindPattern is appendByzKindPattern for a single execution ("" when
// benign).
func byzKindPattern(byz map[graph.NodeID]sim.Node) string {
	if len(byz) == 0 {
		return ""
	}
	var sb strings.Builder
	appendByzKindPattern(&sb, byz)
	return sb.String()
}

// sessionRun is the state of one session execution: the nodes, engine,
// and replay wiring of a complete run, pooled and reusable after reset in
// every replaying mode. Byzantine slots hold the caller's adversary nodes
// and are re-plugged from the current spec on every reset (the pool key
// pins their vertices and kinds, never their values). The engine is never
// Closed while pooled — its worker pool stays warm; if the sync.Pool drops
// the run under GC pressure, the engine's cleanup closes the pool.
type sessionRun struct {
	mode  replayMode
	nodes []sim.Node
	// pnodes[u] is the honest phase node at vertex u, nil at Byzantine
	// slots and for algorithms without phase nodes.
	pnodes []*core.PhaseNode
	// byz lists the Byzantine vertices, re-plugged per run.
	byz []graph.NodeID
	eng *sim.Engine
	// rs is the shared replay blackboard of full and masked runs; nil for
	// delta runs, whose honest nodes flood dynamically.
	rs *core.ReplayShared
	// dp is the delta fragment of delta runs; its base plan is handed to
	// the run's arena-walking adversaries (see sharePlan). nil otherwise.
	dp           *flood.DeltaPlan
	honest       graph.Set
	honestInputs map[graph.NodeID]sim.Value
	// masked and churn carry the fault-injection wiring of runs with a
	// schedule: the engine routes through masked, and churn drives the
	// schedule at round boundaries. Both re-arm per reset — pooled runs of
	// the same shape may carry different schedules.
	masked *sim.MaskedTopology
	churn  *churnRun
}

// planSetter is the optional adversary capability a delta run engages: the
// honest nodes of such a run flood on the benign plan's frozen arena, and an
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

// sessionPhantomOK decides the phantom-transmission toggle of a pooled
// session run: never with an observer attached (observers retain and
// render payloads), and in a masked run only when every fault promises to
// ignore its inbox — the faults are the only non-replaying consumers of a
// masked run's transmissions. Delta runs never phantom (their honest
// nodes genuinely read inboxes).
func sessionPhantomOK(mode replayMode, spec Spec) bool {
	if spec.Observer != nil {
		return false
	}
	if mode == replayMasked {
		return allInboxIgnorers(spec.Byzantine)
	}
	return mode == replayFull
}

// newSessionRun builds the run state of one execution, wiring the mode's
// replay strategy into the honest nodes: the benign or masked plan's
// blackboard for wholesale replay, the delta fragment for partial replay,
// nothing for replayOff.
func newSessionRun(topo *graph.Analysis, spec Spec, mode replayMode) (*sessionRun, error) {
	g := spec.G
	run := &sessionRun{
		mode:         mode,
		nodes:        make([]sim.Node, g.N()),
		pnodes:       make([]*core.PhaseNode, g.N()),
		honest:       graph.NewSet(),
		honestInputs: make(map[graph.NodeID]sim.Value, g.N()),
	}
	switch mode {
	case replayMasked:
		run.rs = core.NewReplayShared(flood.MaskedPlanFor(topo, byzSet(spec.Byzantine)))
	case replayDelta:
		run.dp = flood.DeltaPlanFor(topo, byzSet(spec.Byzantine))
		sharePlan(spec.Byzantine, run.dp.Base())
	case replayFull, replayChurn:
		// Benign and churn runs share the benign compiled plan; a churn
		// run replays it only up to the taint frontier (set below).
		run.rs = core.NewReplayShared(flood.PlanFor(topo))
	}
	if run.rs != nil {
		run.rs.SetPhantom(sessionPhantomOK(mode, spec))
	}
	// Every injected world routes through the mutable link-mask view (the
	// round loop mutates it only between engine steps); only replayChurn
	// also replays up to a taint frontier.
	if !spec.Churn.Empty() {
		run.masked = sim.NewMaskedTopology(g)
		run.churn = newChurnRun(topo, run.masked, spec.Churn)
	}
	frontier := 0
	if mode == replayChurn {
		frontier = churnFrontierPhase(g, spec.Churn)
	}
	for _, u := range g.Nodes() {
		if b, ok := spec.Byzantine[u]; ok {
			run.nodes[u] = b
			run.byz = append(run.byz, u)
			continue
		}
		in := spec.InputSlab[u]
		nd := spec.NewHonestNode(topo, nil, u, in)
		if pn, ok := nd.(*core.PhaseNode); ok {
			if run.rs != nil {
				pn.UseReplay(run.rs)
			} else if run.dp != nil {
				pn.UseDeltaReplay(run.dp)
			}
			if mode == replayChurn {
				pn.SetReplayFrontier(frontier)
			}
			run.pnodes[u] = pn
		}
		run.nodes[u] = nd
		run.honest.Add(u)
		run.honestInputs[u] = in
	}
	engTopo := sim.Topology(sim.GraphTopology{G: g})
	if run.masked != nil {
		engTopo = run.masked
	}
	eng, err := sim.NewEngine(sim.Config{
		Topology:     engTopo,
		Model:        spec.Model,
		Equivocators: spec.Equivocators,
		Observer:     spec.Observer,
		Parallel:     !spec.Sequential,
	}, run.nodes)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	run.eng = eng
	return run, nil
}

// reset re-arms a recycled run for spec: engine counters, inboxes, and
// observer; the phantom toggle; every honest node's protocol state and
// input; and the current spec's adversaries into the Byzantine slots.
// Only the fields outside the shape may differ from the run the state was
// built for — the kind-marked pattern in the key guarantees the Byzantine
// vertices and replay wiring match.
func (r *sessionRun) reset(spec Spec) error {
	r.eng.Reset(spec.Observer)
	if r.rs != nil {
		r.rs.SetPhantom(sessionPhantomOK(r.mode, spec))
	}
	frontier := 0
	if r.churn != nil {
		// Re-arm the fault injection for this run's schedule: the pool key
		// marks churn presence, not schedule contents, so a recycled run
		// may carry a different event list — and therefore a different
		// taint frontier — than the run it was built for.
		r.churn.reset(spec.Churn)
		frontier = churnFrontierPhase(spec.G, spec.Churn)
	}
	clear(r.honestInputs)
	for u, pn := range r.pnodes {
		if pn == nil {
			continue
		}
		in := spec.InputSlab[u]
		pn.Reset(in)
		if r.churn != nil {
			pn.SetReplayFrontier(frontier)
		}
		r.honestInputs[graph.NodeID(u)] = in
	}
	if r.dp != nil {
		sharePlan(spec.Byzantine, r.dp.Base())
	}
	for _, u := range r.byz {
		if err := r.eng.SetNode(u, spec.Byzantine[u]); err != nil {
			return fmt.Errorf("eval: pooled run re-plug: %w", err)
		}
		r.nodes[u] = spec.Byzantine[u]
	}
	return nil
}

// batchShape derives the pool key of a poolable batch spec from its shared
// parameters and its Byzantine placement pattern. The instance count is
// implied by the pattern (b-1 separators), so equal keys guarantee equal
// lane structure.
func batchShape(base Spec, pattern string) runShape {
	shape := sessionShape(base)
	shape.kind = 'b'
	shape.pattern = pattern
	return shape
}
