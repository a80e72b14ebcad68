package core

import (
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// phaseCore is the step-(a) driver shared by PhaseNode and VectorPhaseNode.
// A phase of Algorithms 1 and 3 is one value-blind flooding session
// followed by the node's phase-end reads, so everything but the flooded
// body and the phase end is common to the scalar node and the lane group:
// the phase/round clock, the flooder's lifecycle, the choice between plan
// replay and dynamic flooding (see ReplayShared), the step-(b) path choice
// and the phase-end query scratch. The embedding node supplies the rest
// through phaseBody.
type phaseCore struct {
	g      *graph.Graph
	me     graph.NodeID
	f      int
	phases []PhaseSpec
	// all is the set of the graph's nodes.
	all graph.Set
	// topo is the shared read-only topology analysis the step-(b) path
	// choices are drawn from. It is immutable and safe to share across
	// all nodes of a run and across the instances of a batch.
	topo *graph.Analysis
	// node is the embedding node's phase body and phase end.
	node phaseBody

	phaseIdx     int
	roundInPhase int
	done         bool
	// flooder serves every dynamic phase, recycled at each phase start.
	flooder *flood.Flooder
	// store holds the current phase's receipts: the flooder's store on the
	// dynamic path, a plan-sized store filled by bulk installation on the
	// replay path. The phase end reads only the store, so the two paths
	// share every phase-end computation.
	store *flood.ReceiptStore

	// replay, when non-nil, is the lane group's use of a compiled plan (see
	// UseReplay): which phases replay it, and how the others flood on its
	// arena. replayStore is the run's planned store view, recycled phase
	// over phase; replayBuf is the reused outbox buffer of the replay path.
	replay      *ReplayShared
	replayStore *flood.ReceiptStore
	replayBuf   []sim.Outgoing

	// arena is the per-run path arena shared by every phase's flooding
	// session: interned prefixes are reused phase over phase and PathIDs
	// stay stable, which lets stepB cache chosen paths as integers. ident
	// is the per-run identity table, shared by the phases the same way.
	arena *graph.PathArena
	ident *flood.Ident
	// stepB caches the deterministic step-(b) path choice per (origin,
	// exclusion set): a private instance over a private arena, created by
	// the first phase end, or the analysis-wide cache of the plan whose
	// frozen arena a replaying or delta node adopts.
	stepB *stepBCache

	// scratch backs the phase-end disjoint-receipt queries.
	scratch flood.QueryScratch
	// earlyOK enables the observed-unanimity rule (EnableEarlyDecision).
	earlyOK bool
}

// phaseBody is what a phase node adds to phaseCore: its state, the body it
// floods, and its steps (b)/(c).
type phaseBody interface {
	// openPhase records the phase-start state and returns the body the
	// node floods this phase. reuse reports that nothing outside the run
	// retains the body past the phase (phantom replay), so its backing
	// storage may be overwritten at the next phase start.
	openPhase(reuse bool) flood.Body
	// defaultBody returns the default message substituted for a silent
	// neighbour's initiation.
	defaultBody(graph.NodeID) flood.Body
	// endPhase runs steps (b) and (c) of the current phase over store.
	endPhase()
}

// newPhaseCore assembles the driver. topo is read-only and may be shared
// by every node of a run (and every instance of a batch); it is safe for
// concurrent use. arena, when non-nil, is shared message-identity state:
// it is NOT safe for concurrent use and may only be shared among the nodes
// of one run — in practice the co-located instances of one batch node
// (same graph vertex). A nil arena stays nil until the first dynamic
// flooding round: a node switched to replay adopts the plan's frozen arena
// instead and never touches a private one.
func newPhaseCore(topo *graph.Analysis, f int, me graph.NodeID, phases []PhaseSpec, arena *graph.PathArena, node phaseBody) phaseCore {
	g := topo.Graph()
	return phaseCore{g: g, me: me, f: f, phases: phases, all: graph.NewSet(g.Nodes()...), topo: topo, arena: arena, node: node}
}

// ID returns the node id.
func (c *phaseCore) ID() graph.NodeID { return c.me }

// rewind returns the clock to the first phase; every buffer, the flooder
// and the run wiring (UseReplay, EnableEarlyDecision) are kept, and every
// step-(b) cache entry stays valid (it is a fact about the topology).
func (c *phaseCore) rewind() {
	c.phaseIdx, c.roundInPhase, c.done = 0, 0, false
}

// UseReplay wires the node to its lane group's compiled plan: phases the
// group replays (see ReplayShared) bulk-install receipts from the plan's
// schedule and materialize outboxes from its templates, with the phase
// bodies drawn from the group's blackboard; the others flood dynamically on
// the plan's frozen arena. The node adopts that arena as its run arena
// (every path it will ever look up is already interned there) and the
// plan's shared step-(b) cache. Wholesale replay is an execution strategy,
// not a semantics change — it is only sound for the phases whose flood the
// plan describes exactly (every node initiates, every relay forwards
// correctly, or the plan's crash mask holds), which the caller asserts
// through the group's taint. Must be called before the first Step, and
// every honest node (or lane-group vertex) of the group must share the same
// ReplayShared.
func (c *phaseCore) UseReplay(rs *ReplayShared) {
	c.replay = rs
	c.arena = rs.plan.Arena()
	c.stepB = replayStepBCache(c.topo, rs.plan)
}

// UseDeltaReplay wires the node alone to the delta fragment dp: UseReplay
// over a ReplayShared of dp's base plan tainted by dp. Kept for the
// benchmark probes (benchmark/probes/kit), which build delta worlds node by
// node.
func (c *phaseCore) UseDeltaReplay(dp *flood.DeltaPlan) { c.UseReplay(deltaShared(dp)) }

// IgnoresInbox implements sim.InboxIgnorer: a node whose group replays
// every phase draws every arrival from the compiled plan and never reads
// its inbox. A tainted group's nodes read deliveries in their dynamic
// phases, so they do not qualify — and the contract is monotone (false may
// become true, never the reverse), which the taint respects because it is
// set before the first Step.
func (c *phaseCore) IgnoresInbox() bool {
	return c.replay != nil && c.replay.frontier >= len(c.phases)
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
// determined to be x and the node may report it now. A lane group applies
// the rule lane by lane.
//
// The node keeps executing all phases identically after deciding early
// (so other nodes' executions are byte-for-byte unchanged); only the
// decision it reports is affected. The engine layer stops the run once
// every honest node reports a decision.
func (c *phaseCore) EnableEarlyDecision() { c.earlyOK = true }

// Step advances the node by one synchronous round: step (a) on the replay
// or dynamic path, then, at the phase's last round, the node's phase end.
func (c *phaseCore) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	if c.done || c.phaseIdx >= len(c.phases) {
		c.done = true
		return nil
	}
	var out []sim.Outgoing
	if c.replay != nil && c.phaseIdx < c.replay.frontier {
		out = c.replayStep()
	} else {
		out = c.dynamicStep(inbox)
	}
	c.roundInPhase++
	if c.roundInPhase == PhaseRounds(c.g.N()) {
		c.node.endPhase()
		c.roundInPhase = 0
		c.phaseIdx++
		if c.phaseIdx == len(c.phases) {
			c.done = true
		}
	}
	return out
}

// dynamicStep runs one round of the message-by-message flooding path.
func (c *phaseCore) dynamicStep(inbox []sim.Delivery) []sim.Outgoing {
	var dp *flood.DeltaPlan
	if c.replay != nil {
		dp = c.replay.taint
	}
	if c.roundInPhase == 0 {
		// Step (a): initiate flooding of the phase body. One flooder
		// serves every phase: flooding structure repeats phase over phase,
		// so recycling it (receipts and acceptance state cleared, index
		// capacity kept) leaves every append of the new phase landing in
		// pre-grown storage. On a plan's arena the first phase sizes from
		// the plan's receipt count, an upper bound for any fault pattern.
		if dp != nil {
			flood.NoteDeltaReplaySession()
		} else {
			flood.NoteDynamicSession()
		}
		if c.flooder == nil {
			c.ident = flood.NewIdent()
			if c.replay != nil {
				c.flooder = flood.NewOnPlan(c.replay.plan, c.me, c.ident)
				c.flooder.Expect(c.replay.plan.NodeReceipts(c.me))
			} else {
				if c.arena == nil {
					c.arena = graph.NewPathArena(c.g)
				}
				c.flooder = flood.NewWithState(c.g, c.me, c.arena, c.ident)
			}
		} else {
			c.flooder.Recycle()
		}
		// Re-point the receipt store every phase: a node past its taint
		// frontier arrives here with store still on its replay store from
		// the replayed prefix, and must read this phase's receipts from the
		// flooder instead.
		c.store = c.flooder.Store()
		return c.flooder.Start(c.node.openPhase(false))
	}
	var out []sim.Outgoing
	if dp != nil {
		out = c.flooder.DeliverDelta(dp, c.roundInPhase, inbox)
	} else {
		out = c.flooder.Deliver(inbox)
	}
	if c.roundInPhase == 1 {
		// Initiations arrive now; after processing, substitute the
		// default message for silent neighbors.
		out = c.flooder.AppendMissing(out, c.node.defaultBody)
	}
	return out
}

// replayStep runs one round of the plan-replay path: at phase start it
// publishes this node's body to the run blackboard and opens an
// exact-sized store; every round then bulk-installs the plan's scheduled
// arrivals and materializes the precompiled outbox. The emitted
// transmissions are byte-identical to the dynamic path's, so observers,
// metrics, and any dynamically-flooding co-instances of a batch see the
// same execution.
func (c *phaseCore) replayStep() []sim.Outgoing {
	plan := c.replay.plan
	if c.roundInPhase == 0 {
		flood.NoteReplaySession()
		// The planned view takes the node's Ident, nil unless a dynamic
		// phase ran first: value bodies carry pre-reserved identities, and
		// no vector phase-end query filters by body identity (step (b)
		// reads by path, step (c) and the unanimity certificate project
		// lanes Go-side), so a replaying node never interns a body.
		if c.replayStore == nil {
			c.replayStore = plan.PlannedStore(c.me, c.ident)
			c.replayBuf = make([]sim.Outgoing, 0, plan.MaxRoundReceipts(c.me))
		} else {
			c.replayStore.ResetPlanned()
		}
		c.store = c.replayStore
		c.replay.bodies[c.me] = c.node.openPhase(c.replay.phantom)
	}
	var out []sim.Outgoing
	if c.replay.phantom {
		out = plan.ReplayRoundPhantom(c.me, c.roundInPhase, c.replay.bodies, c.store, c.replayBuf[:0])
	} else {
		out = plan.ReplayRound(c.me, c.roundInPhase, c.replay.bodies, c.store, c.replayBuf[:0])
	}
	c.replayBuf = out
	return out
}

// chosenPath returns the interned step-(b) path choice for origin u under
// exclusion set excl, NoPath if none exists: the deterministic
// BFS-shortest uv-path excluding excl, identical across phases, runs and
// lanes, so the batched and independent executions can never choose
// different paths.
func (c *phaseCore) chosenPath(u graph.NodeID, excl graph.Set) graph.PathID {
	if c.stepB == nil {
		c.stepB = newStepBCache()
	}
	return c.stepB.chosen(c.topo, c.arena, u, c.me, excl)
}
