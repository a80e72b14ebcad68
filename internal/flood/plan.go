package flood

import (
	"sync"
	"sync/atomic"

	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file implements compile-once propagation plans: which paths a
// value-flooding session's messages traverse, and when each receipt
// arrives, is a pure function of the static graph and of which nodes relay
// correctly — it never depends on the values carried. A Plan captures that
// structure once, as a dense round-indexed schedule of arrival records per
// node over a shared PathArena. Sessions, batch lanes, and Monte Carlo
// trials whose flood is fault-free then REPLAY the schedule — receipts are
// bulk-installed into the ReceiptStore and outboxes materialized from the
// precompiled templates, with zero per-message interning, dedup, or
// rule-(i)–(iii) work — instead of re-discovering the structure message by
// message. Any flood touched by a faulty relay, tamper, or equivocation
// stays on the dynamic path, record for record identical.
//
// Compilation enumerates paths; it floods nothing. When every relay is
// correct, rule (iii) is the only rule that ever discards (each node
// forwards each accepted path exactly once, so rule (ii) never fires), and
// node v's round-r receipts are exactly the simple paths of r+1 nodes that
// end at v. compile lists them level by level in the order the engine's
// canonical delivery (ascending receiver; within a receiver, ascending
// sender; within a sender, its previous round's acceptance order) makes
// the dynamic flooders accept and intern them, so the arena's PathIDs, the
// schedules, and every trace are those of a dynamic fault-free session.
// The differential tests pin the enumeration against a symbolic run of the
// dynamic flooders; see DESIGN.md §10 for the full argument.

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
	// path, for the benign plan — are built once per path for the whole
	// plan, on the first Box or ReplayRound (boxOnce; phantom replay never
	// reads the table, so a plan served only by phantom replay never builds
	// it). The payloads are immutable (shared canonical bodies,
	// frozen-arena paths) and safe for concurrent runs and for retention by
	// observers.
	boxOnce sync.Once
	boxed   [2][]sim.Payload
	// rounds is the session length in engine rounds (flood.Rounds).
	rounds int
	sched  []planSchedule // per receiving node
	// tmpl[v] is node v's template store: its schedule added in order, with
	// a placeholder body. Its indexes describe every replayed phase's store
	// verbatim (replay installs the same receipts in the same order, bodies
	// aside), so per-phase stores are PlannedViews sharing them. nil at
	// masked (silent) vertices — no store is ever planned for a crashed
	// node.
	tmpl []*ReceiptStore
	// mask is the set of silent nodes the plan was compiled against: empty
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

// CompilePlan builds the propagation plan of graph g, every node
// initiating and relaying correctly, by enumerating the simple paths of g
// level by level (see compile). Use PlanFor to pay it once per analysis
// instead of per call.
func CompilePlan(g *graph.Graph) *Plan {
	p := compile(g, 0)
	planCompiles.Add(1)
	return p
}

// compile enumerates the receipt schedules of a fault-free flooding
// session on g in which the nodes of silent never initiate nor relay
// (empty: every node relays). Round 0 is every relaying node's self
// receipt, in ascending order. In round r ≥ 1 every relaying v, in
// ascending order, accepts from each relaying neighbour u, in AdjList
// order, the receipts u accepted in round r-1 whose path avoids v — each
// is the Π·u of a forward u sent, and v records Π·u·v. In round 1 v then
// applies the default-message rule: it accepts [u, v] for every silent
// neighbour u, after the delivered receipts, in AdjList order, interning
// the root [u] on first use. That is exactly the order in which the
// dynamic flooders, driven in the engine's canonical delivery order,
// accept and intern those paths, so PathIDs and schedules are the dynamic
// session's.
func compile(g *graph.Graph, silent graph.Set) *Plan {
	n := g.N()
	arena := graph.NewPathArena(g)
	p := &Plan{g: g, arena: arena, rounds: Rounds(n), sched: make([]planSchedule, n)}
	relays := make([]bool, n)
	for v := range p.sched {
		p.sched[v].roundOff = make([]int32, p.rounds+1)
		relays[v] = !silent.Contains(graph.NodeID(v))
	}
	for v := range p.sched {
		if relays[v] {
			p.sched[v].add(arena.Root(graph.NodeID(v)), graph.NoPath, graph.NodeID(v))
		}
		p.sched[v].roundOff[1] = int32(len(p.sched[v].pids))
	}
	for r := 1; r < p.rounds; r++ {
		for v := range p.sched {
			s := &p.sched[v]
			if relays[v] {
				me := graph.NodeID(v)
				for _, u := range g.AdjList(me) {
					if !relays[u] {
						continue
					}
					su := &p.sched[u]
					for i := su.roundOff[r-1]; i < su.roundOff[r]; i++ {
						if pid := su.pids[i]; !arena.Contains(pid, me) {
							s.add(arena.Extend(pid, me), pid, su.origins[i])
						}
					}
				}
				if r == 1 {
					for _, u := range g.AdjList(me) {
						if !relays[u] {
							root := arena.Root(u)
							s.add(arena.Extend(root, me), root, u)
						}
					}
				}
			}
			s.roundOff[r+1] = int32(len(s.pids))
		}
	}
	arena.Freeze()
	// The per-node templates: each relaying node's completed store, its
	// indexes describing every replayed phase's store (see PlannedStore).
	p.tmpl = make([]*ReceiptStore, n)
	body := CanonValueBody(sim.DefaultValue)
	for v := range p.sched {
		if !relays[v] {
			continue
		}
		s := &p.sched[v]
		st := NewReceiptStore(arena, nil)
		st.Reserve(len(s.pids))
		for i, pid := range s.pids {
			st.Add(Receipt{Origin: s.origins[i], PathID: pid, Body: body})
		}
		p.tmpl[v] = st
	}
	return p
}

// add appends one receipt to the schedule.
func (s *planSchedule) add(pid, parent graph.PathID, origin graph.NodeID) {
	s.pids = append(s.pids, pid)
	s.parents = append(s.parents, parent)
	s.origins = append(s.origins, origin)
}

// valueMsgs returns the plan's pre-boxed value-message table, building it
// on first use: both value messages for every scheduled receipt (a node
// transmits once per receipt, the round-0 self receipt's initiation
// included). Paths the plan never schedules — a masked plan's silent roots
// — stay nil, and Box boxes them per call.
func (p *Plan) valueMsgs() *[2][]sim.Payload {
	p.boxOnce.Do(func() {
		for val := range p.boxed {
			boxed := make([]sim.Payload, p.arena.Len())
			body := CanonValueBody(sim.Value(val))
			for v := range p.sched {
				for _, ext := range p.sched[v].pids {
					boxed[ext] = hinted(p.arena, body, ext)
				}
			}
			p.boxed[val] = boxed
		}
	})
	return &p.boxed
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

// MaxRoundFanIn returns the largest number of transmissions node v hears
// in one round of the session: every receipt a neighbour accepts in a round
// is broadcast to v, so the round-r fan-in is the neighbours' round-r
// receipt counts summed. It sizes v's engine inbox for a run flooding
// dynamically on this plan's graph.
func (p *Plan) MaxRoundFanIn(v graph.NodeID) int {
	maxN := int32(0)
	for r := 0; r < p.rounds; r++ {
		n := int32(0)
		for _, u := range p.g.AdjList(v) {
			if off := p.sched[u].roundOff; r+1 < len(off) {
				n += off[r+1] - off[r]
			}
		}
		maxN = max(maxN, n)
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
			pay = p.valueMsgs()[vb.Value][s.pids[i]]
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
	// DeltaReplaySessions counts per-node flooding sessions of value-faulty
	// runs, served from the benign plan through an Overlay (each round
	// whose faulty sends fit it, the rest of a phase on the dynamic rules).
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
