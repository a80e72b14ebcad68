package flood

import (
	"sync/atomic"

	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file implements compile-once propagation plans: which paths a
// value-flooding session's messages traverse, and when each receipt
// arrives, is a pure function of the static graph and of which nodes relay
// correctly — it never depends on the values carried. A Plan captures that
// structure once, by running the existing dynamic flood symbolically over a
// shared PathArena, as a dense round-indexed schedule of arrival records
// per node. Sessions, batch lanes, and Monte Carlo trials whose flood is
// fault-free then REPLAY the schedule — receipts are bulk-installed into
// the ReceiptStore and outboxes materialized from the precompiled
// templates, with zero per-message interning, dedup, or rule-(i)–(iii)
// work — instead of re-discovering the structure message by message. Any
// flood touched by a faulty relay, tamper, or equivocation stays on the
// dynamic path, record for record identical.
//
// Parity is by construction: the compiler IS the dynamic flooder (driven
// over the engine's canonical delivery order — ascending sender, FIFO
// within a sender's round output), so the schedule records exactly the
// acceptance set, acceptance order, and forward order a fault-free dynamic
// session produces. Replay only substitutes the per-phase bodies into that
// fixed skeleton. See DESIGN.md §10 for the full argument.

// Plan is the compiled propagation schedule of one complete fault-free
// value-flooding session (every node initiates, every node relays
// correctly) on one graph. It is immutable after compilation — its arena
// is frozen — and safe for concurrent use by any number of replaying
// nodes, runs, and trials. Obtain plans through PlanFor, which memoizes
// one per graph.Analysis.
type Plan struct {
	g     *graph.Graph
	arena *graph.PathArena // frozen at the end of compilation
	// boxed[v][ext] is the pre-boxed message a node transmits for
	// ValueBody{v} when its own extended path Π·me is ext (see Box): Msg
	// boxing is the last per-receipt allocation of a scalar replayed round,
	// and ValueBody has exactly two inhabitants, so both variants of the
	// transmission every scheduled receipt induces — the arena's every
	// path, for the benign plan — are built at compile time, once per path
	// for the whole plan. The payloads are immutable (shared canonical
	// bodies, frozen-arena paths) and safe for concurrent runs and for
	// retention by observers.
	boxed [2][]sim.Payload
	// rounds is the session length in engine rounds (flood.Rounds).
	rounds int
	sched  []planSchedule // per receiving node
	// tmpl[v] is node v's completed compile-time store: its byOrigin and
	// byPath indexes describe every replayed phase's store verbatim
	// (replay installs the same receipts in the same order, bodies aside),
	// so per-phase stores are PlannedViews sharing them. nil at masked
	// (silent) vertices — no store is ever planned for a crashed node.
	tmpl []*ReceiptStore
	// mask is the set of silent nodes the plan was compiled against: nil
	// for the benign all-relays-correct plan, non-empty for masked plans
	// (see CompileMaskedPlan in faultplan.go).
	mask graph.Set
}

// planSchedule is one node's receipt schedule in acceptance order.
type planSchedule struct {
	// pids[i] is receipt i's full origin→v provenance path.
	pids []graph.PathID
	// parents[i] is pids[i] without the receiving node — the Π·u the node
	// forwards on accepting receipt i (NoPath for the round-0 self
	// receipt, whose initiation is sent with an empty path).
	parents []graph.PathID
	// origins[i] is the first node of pids[i]: the slot whose body the
	// receipt carries.
	origins []graph.NodeID
	// roundOff[r] .. roundOff[r+1] bound the receipts accepted in session
	// round r (len rounds+1).
	roundOff []int32
}

// CompilePlan builds the propagation plan of graph g by executing the
// dynamic flooding state machines of all n nodes symbolically: one shared
// arena, a ValueBody placeholder (the flood is value-blind, so any body
// yields the same structure), and the engine's canonical delivery order.
// Cost is one fault-free flooding session; use PlanFor to pay it once per
// analysis instead of per call.
func CompilePlan(g *graph.Graph) *Plan {
	n := g.N()
	arena := graph.NewPathArena(g)
	ident := NewIdent()
	p := &Plan{g: g, arena: arena, rounds: Rounds(n), sched: make([]planSchedule, n)}
	for v := range p.sched {
		p.sched[v].roundOff = make([]int32, p.rounds+1)
	}

	flooders := make([]*Flooder, n)
	for u := 0; u < n; u++ {
		flooders[u] = NewWithState(g, graph.NodeID(u), arena, ident)
	}
	// record captures the receipts node v accepted in round r: everything
	// its store gained since the previous capture, in acceptance order.
	record := func(v, r int) {
		s := &p.sched[v]
		all := flooders[v].Store().All()
		for _, rec := range all[len(s.pids):] {
			s.pids = append(s.pids, rec.PathID)
			s.parents = append(s.parents, arena.Parent(rec.PathID))
			s.origins = append(s.origins, rec.Origin)
		}
		s.roundOff[r+1] = int32(len(s.pids))
	}

	body := ValueBody{Value: sim.DefaultValue}
	outs := make([][]sim.Outgoing, n)
	for u := 0; u < n; u++ {
		outs[u] = flooders[u].Start(body)
		record(u, 0)
	}
	inboxes := make([][]sim.Delivery, n)
	for r := 1; r < p.rounds; r++ {
		for v := range inboxes {
			inboxes[v] = inboxes[v][:0]
		}
		// Canonical delivery order: ascending sender, FIFO within a
		// sender's outbox, every transmission heard by all neighbors —
		// exactly sim.Engine's routing of a local-broadcast round.
		for u := 0; u < n; u++ {
			for _, out := range outs[u] {
				for _, w := range g.AdjList(graph.NodeID(u)) {
					inboxes[w] = append(inboxes[w], sim.Delivery{From: graph.NodeID(u), Payload: out.Payload})
				}
			}
		}
		// Deliver's returned buffer is valid until the flooder's next
		// Deliver call; it is consumed (inbox building above) before that.
		for v := 0; v < n; v++ {
			outs[v] = flooders[v].Deliver(inboxes[v])
			record(v, r)
		}
	}
	p.seal(flooders)
	planCompiles.Add(1)
	return p
}

// seal ends a compilation: the arena is frozen, the compile flooders'
// stores become the per-node templates (nil flooders — masked vertices —
// leave nil templates), and both value messages are boxed for every
// scheduled receipt (a node transmits once per receipt, the round-0 self
// receipt's initiation included).
func (p *Plan) seal(flooders []*Flooder) {
	p.arena.Freeze()
	p.tmpl = make([]*ReceiptStore, len(flooders))
	for v, f := range flooders {
		if f != nil {
			p.tmpl[v] = f.Store()
		}
	}
	for val := range p.boxed {
		p.boxed[val] = make([]sim.Payload, p.arena.Len())
		body := CanonValueBody(sim.Value(val))
		for v := range p.sched {
			for _, ext := range p.sched[v].pids {
				p.boxed[val][ext] = hinted(p.arena, body, ext)
			}
		}
	}
}

// planKey keys compiled plans in the Analysis memo by relay mask: the
// canonical rendering of the set of nodes assumed to relay correctly
// ("" = every node; crash-fault masks live in the bounded LRU behind
// MaskedPlanFor, see faultplan.go).
type planKey struct{ relays string }

// PlanFor returns the graph's compiled all-relays-correct propagation
// plan, memoized on the analysis: every session, batch, sweep cell, and
// Monte Carlo trial sharing the analysis shares one compilation.
func PlanFor(a *graph.Analysis) *Plan {
	return a.Memo(planKey{}, func() any { return CompilePlan(a.Graph()) }).(*Plan)
}

// Graph returns the planned graph.
func (p *Plan) Graph() *graph.Graph { return p.g }

// Arena returns the plan's frozen arena. Replaying nodes adopt it as their
// run arena: it already holds every simple path of the graph, so all their
// lookups (schedule pids, step-(b) choices) hit, and a frozen arena is
// safe for concurrent readers.
func (p *Plan) Arena() *graph.PathArena { return p.arena }

// Rounds returns the session length in engine rounds.
func (p *Plan) Rounds() int { return p.rounds }

// NodeReceipts returns the exact number of receipts node v records over a
// full replayed session — the precise ReceiptStore.Reserve size.
func (p *Plan) NodeReceipts(v graph.NodeID) int { return len(p.sched[v].pids) }

// MaxRoundReceipts returns the largest single-round receipt count of node
// v's schedule — the exact capacity a reusable replay outbox buffer needs.
func (p *Plan) MaxRoundReceipts(v graph.NodeID) int {
	s := &p.sched[v]
	maxN := int32(0)
	for r := 0; r+1 < len(s.roundOff); r++ {
		if n := s.roundOff[r+1] - s.roundOff[r]; n > maxN {
			maxN = n
		}
	}
	return int(maxN)
}

// PlannedStore returns a fresh per-run receipt store for node v: a
// PlannedView over the node's compile-time template, pre-sized to the
// exact session receipt count and sharing the template's immutable
// indexes. One view serves a node's whole run — ResetPlanned recycles it
// between phases.
func (p *Plan) PlannedStore(v graph.NodeID, ident *Ident) *ReceiptStore {
	return p.tmpl[v].PlannedView(ident)
}

// ReplayRound bulk-installs node v's round-r arrivals into store and
// appends the round's precompiled outbox to out. store must be a
// PlannedStore view of this plan (its indexes already describe the
// schedule, so installation is two appends per receipt). bodies[o] must be
// the body origin o floods this session; the flood skeleton is
// value-blind, so substituting the session's bodies into the compiled
// schedule reproduces the dynamic execution receipt for receipt and
// transmission for transmission. Round 0 is the initiation round: it
// installs the self receipt and emits the empty-path initiation, exactly
// like Start.
func (p *Plan) ReplayRound(v graph.NodeID, r int, bodies []Body, store *ReceiptStore, out []sim.Outgoing) []sim.Outgoing {
	s := &p.sched[v]
	if r < 0 || r >= len(s.roundOff)-1 {
		return out
	}
	for i := s.roundOff[r]; i < s.roundOff[r+1]; i++ {
		b := bodies[s.origins[i]]
		store.AddPlanned(Receipt{Origin: s.origins[i], PathID: s.pids[i], Body: b})
		// Scalar value bodies ride the pre-boxed compile-time payloads
		// (every scheduled receipt has one; Box spelled out, this loop is
		// the replay hot path); anything else (lane vectors) is boxed per
		// forward as before.
		var pay sim.Payload
		if vb, ok := b.(ValueBody); ok && vb.Value <= sim.One {
			pay = p.boxed[vb.Value][s.pids[i]]
		} else {
			pay = hinted(p.arena, b, s.pids[i])
		}
		out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: pay})
	}
	return out
}

// ReplayRoundPhantom is ReplayRound emitting sim.Phantom in place of every
// outgoing payload: receipts are installed for real (the node's own
// phase-end reads depend on them), but the wire payloads are not
// materialized. The transmission count and destinations are identical to
// ReplayRound's; only the content is elided. Callers must hold the
// phantom proof — no observer anywhere in the run, and no dynamic
// consumer of this node's transmissions (see sim.Phantom).
func (p *Plan) ReplayRoundPhantom(v graph.NodeID, r int, bodies []Body, store *ReceiptStore, out []sim.Outgoing) []sim.Outgoing {
	s := &p.sched[v]
	if r < 0 || r >= len(s.roundOff)-1 {
		return out
	}
	for i := s.roundOff[r]; i < s.roundOff[r+1]; i++ {
		store.AddPlanned(Receipt{Origin: s.origins[i], PathID: s.pids[i], Body: bodies[s.origins[i]]})
		out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: sim.Phantom})
	}
	return out
}

// Plan-cache statistics: compilations, replayed flooding sessions, and
// dynamic (fallback) flooding sessions, process-wide. lbcbench reports
// per-workload deltas of these so a regression to 0% replay is visible.
var (
	planCompiles       atomic.Int64
	planMaskedCompiles atomic.Int64
	planReplay         atomic.Int64
	planDeltaReplay    atomic.Int64
	planDynamic        atomic.Int64
)

// PlanStats is a snapshot of the process-wide plan counters.
type PlanStats struct {
	// Compiles counts benign (all-relays-correct) plan compilations — one
	// per graph per analysis in the steady state.
	Compiles int64 `json:"compiles"`
	// MaskedCompiles counts crash-mask plan compilations — one per
	// observed silent-fault shape per analysis, bounded by the LRU.
	MaskedCompiles int64 `json:"masked_compiles"`
	// ReplaySessions counts per-node flooding sessions served wholesale
	// by replay (benign or masked plans).
	ReplaySessions int64 `json:"replay_sessions"`
	// DeltaReplaySessions counts per-node flooding sessions served by the
	// delta fast path: untainted slots bulk-installed from the benign
	// plan, tainted slots on the dynamic rules.
	DeltaReplaySessions int64 `json:"delta_replay_sessions"`
	// DynamicSessions counts per-node flooding sessions that ran the
	// dynamic message-by-message path end to end.
	DynamicSessions int64 `json:"dynamic_sessions"`
}

// ReadPlanStats returns the current counter values.
func ReadPlanStats() PlanStats {
	return PlanStats{
		Compiles:            planCompiles.Load(),
		MaskedCompiles:      planMaskedCompiles.Load(),
		ReplaySessions:      planReplay.Load(),
		DeltaReplaySessions: planDeltaReplay.Load(),
		DynamicSessions:     planDynamic.Load(),
	}
}

// NoteReplaySession records one replayed flooding session (a node-phase).
func NoteReplaySession() { planReplay.Add(1) }

// NoteDeltaReplaySession records one delta-replayed flooding session (a
// node-phase whose untainted slots rode the fast path).
func NoteDeltaReplaySession() { planDeltaReplay.Add(1) }

// NoteDynamicSession records one dynamic flooding session (a node-phase).
func NoteDynamicSession() { planDynamic.Add(1) }
