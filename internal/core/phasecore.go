package core

import (
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file holds the phase node's step-(a) driver. A phase of Algorithms
// 1 and 3 is one value-blind flooding session followed by the node's
// phase end, so everything here is independent of the lane count: the
// phase/round clock, the flooder's lifecycle, the choice between plan
// replay and dynamic flooding (see ReplayShared), and the step-(b) path
// choice. The lane count shows only in the body the node floods and in
// its phase end (vectornode.go).

// ID returns the node id.
func (nd *VectorPhaseNode) ID() graph.NodeID { return nd.me }

// rewind returns the clock to the first phase; every buffer, the flooder
// and the run wiring (UseReplay, EnableEarlyDecision) are kept, and every
// step-(b) cache entry stays valid (it is a fact about the topology).
func (nd *VectorPhaseNode) rewind() {
	nd.phaseIdx, nd.roundInPhase, nd.done = 0, 0, false
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
func (nd *VectorPhaseNode) UseReplay(rs *ReplayShared) {
	nd.replay = rs
	nd.arena = rs.plan.Arena()
	nd.stepB = replayStepBCache(nd.topo, rs.plan)
}

// UseDeltaReplay wires the node alone to the delta fragment dp: UseReplay
// over a ReplayShared of dp's base plan tainted by dp. Kept for the
// benchmark probes (benchmark/probes/kit), which build delta worlds node by
// node.
func (nd *VectorPhaseNode) UseDeltaReplay(dp *flood.DeltaPlan) { nd.UseReplay(deltaShared(dp)) }

// IgnoresInbox implements sim.InboxIgnorer: a node whose group replays
// every phase draws every arrival from the compiled plan and never reads
// its inbox. A tainted group's nodes read deliveries in their dynamic
// phases, so they do not qualify — and the contract is monotone (false may
// become true, never the reverse), which the taint respects because it is
// set before the first Step.
func (nd *VectorPhaseNode) IgnoresInbox() bool {
	return nd.replay != nil && nd.replay.frontier >= len(nd.phases)
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
// determined to be x and the node may report it now. The rule applies
// lane by lane.
//
// The node keeps executing all phases identically after deciding early
// (so other nodes' executions are byte-for-byte unchanged); only the
// decision it reports is affected. The engine layer stops the run once
// every honest node reports a decision.
func (nd *VectorPhaseNode) EnableEarlyDecision() { nd.earlyOK = true }

// Step advances the node by one synchronous round: step (a) on the replay
// or dynamic path, then, at the phase's last round, the node's phase end.
func (nd *VectorPhaseNode) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	if nd.done || nd.phaseIdx >= len(nd.phases) {
		nd.done = true
		return nil
	}
	var out []sim.Outgoing
	if nd.replay != nil && nd.phaseIdx < nd.replay.frontier {
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
			nd.done = true
		}
	}
	return out
}

// dynamicStep runs one round of the message-by-message flooding path.
func (nd *VectorPhaseNode) dynamicStep(inbox []sim.Delivery) []sim.Outgoing {
	var dp *flood.DeltaPlan
	if nd.replay != nil {
		dp = nd.replay.taint
	}
	if nd.roundInPhase == 0 {
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
		if nd.flooder == nil {
			nd.ident = flood.NewIdent()
			if nd.replay != nil {
				nd.flooder = flood.NewOnPlan(nd.replay.plan, nd.me, nd.ident)
				nd.flooder.Expect(nd.replay.plan.NodeReceipts(nd.me))
			} else {
				if nd.arena == nil {
					nd.arena = graph.NewPathArena(nd.g)
				}
				nd.flooder = flood.NewWithState(nd.g, nd.me, nd.arena, nd.ident)
			}
		} else {
			nd.flooder.Recycle()
		}
		// Re-point the receipt store every phase: a node past its taint
		// frontier arrives here with store still on its replay store from
		// the replayed prefix, and must read this phase's receipts from the
		// flooder instead.
		nd.store = nd.flooder.Store()
		return nd.flooder.Start(nd.openPhase(false))
	}
	var out []sim.Outgoing
	if dp != nil {
		out = nd.flooder.DeliverDelta(dp, nd.roundInPhase, inbox)
	} else {
		out = nd.flooder.Deliver(inbox)
	}
	if nd.roundInPhase == 1 {
		// Initiations arrive now; after processing, substitute the
		// default message for silent neighbors.
		out = nd.flooder.AppendMissing(out, nd.defaultBody)
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
func (nd *VectorPhaseNode) replayStep() []sim.Outgoing {
	plan := nd.replay.plan
	if nd.roundInPhase == 0 {
		flood.NoteReplaySession()
		// The planned view takes the node's Ident, nil unless a dynamic
		// phase ran first: value bodies carry pre-reserved identities, and
		// only a one-lane node's phase-end queries filter by body identity,
		// by those value identities (step (b) reads by path, and a wider
		// node projects lanes Go-side), so a replaying node never interns a
		// body.
		if nd.replayStore == nil {
			nd.replayStore = plan.PlannedStore(nd.me, nd.ident)
			nd.replayBuf = make([]sim.Outgoing, 0, plan.MaxRoundReceipts(nd.me))
		} else {
			nd.replayStore.ResetPlanned()
		}
		nd.store = nd.replayStore
		nd.replay.bodies[nd.me] = nd.openPhase(nd.replay.phantom)
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

// chosenPath returns the interned step-(b) path choice for origin u under
// exclusion set excl, NoPath if none exists: the deterministic
// BFS-shortest uv-path excluding excl, identical across phases, runs and
// lanes, so the batched and independent executions can never choose
// different paths.
func (nd *VectorPhaseNode) chosenPath(u graph.NodeID, excl graph.Set) graph.PathID {
	if nd.stepB == nil {
		nd.stepB = newStepBCache()
	}
	return nd.stepB.chosen(nd.topo, nd.arena, u, nd.me, excl)
}
