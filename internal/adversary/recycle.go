package adversary

import (
	"sync"
	"sync/atomic"

	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file implements adversary recycling for randomized sweeps: per-kind
// sync.Pools that hand out reset strategy nodes instead of constructing
// fresh ones for every fault of every trial. A recycled adversary is
// indistinguishable from a freshly built one — Reset re-derives the seeded
// random stream with exactly the constructor's seed transform, and the
// scratch buffers it keeps (transmission buffers, walk state) carry only
// capacity, never values, across trials; a plan handed to the node
// (SetPlan) is dropped, as a constructor would leave it. The pools are
// process-wide: adversary state is graph-independent (nodes hold a
// *graph.Graph field that Acquire re-points), so one pool serves every
// topology.

// Resettable is the trial-lifecycle contract of a poolable adversary:
// Reset(seed) must restore exactly the observable state the node's
// constructor would produce for the same seed. Nodes whose behavior draws
// no randomness implement it as a no-op.
type Resettable interface {
	Reset(seed int64)
}

var (
	silentPool      sync.Pool
	tamperPool      sync.Pool
	equivocatorPool sync.Pool
	forgerPool      sync.Pool
	adaptivePool    sync.Pool

	// adversaryReuses counts pool hits: adversaries re-armed by Reset
	// instead of constructed. Exported via ReadRecycleStats for the
	// benchmark counters.
	adversaryReuses atomic.Uint64
)

// ReadRecycleStats returns the cumulative number of adversary instances
// recycled through the strategy pools (a construction avoided per count).
func ReadRecycleStats() (reuses uint64) {
	return adversaryReuses.Load()
}

// AcquireSilent returns a silent node for vertex me, recycled when the
// pool has one.
func AcquireSilent(me graph.NodeID) *SilentNode {
	if v := silentPool.Get(); v != nil {
		adversaryReuses.Add(1)
		n := v.(*SilentNode)
		n.Me = me
		return n
	}
	return &SilentNode{Me: me}
}

// AcquireTamper returns a tampering node equivalent to
// NewFastTamper(g, me, phaseLen, seed), recycled when the pool has one.
// Reset re-seeds the recycled node's fast source in O(1), so a hit skips
// both the construction and any expensive generator re-initialization.
func AcquireTamper(g *graph.Graph, me graph.NodeID, phaseLen int, seed int64) *TamperNode {
	if v := tamperPool.Get(); v != nil {
		adversaryReuses.Add(1)
		n := v.(*TamperNode)
		n.G, n.Me, n.PhaseLen = g, me, phaseLen
		n.FlipProb, n.DropProb = 0.75, 0.2
		n.SetPlan(nil)
		n.Reset(seed)
		return n
	}
	return NewFastTamper(g, me, phaseLen, seed)
}

// AcquireEquivocator returns an equivocating node for vertex me, recycled
// when the pool has one.
func AcquireEquivocator(g *graph.Graph, me graph.NodeID, phaseLen int) *EquivocatorNode {
	if v := equivocatorPool.Get(); v != nil {
		adversaryReuses.Add(1)
		n := v.(*EquivocatorNode)
		n.G, n.Me, n.PhaseLen = g, me, phaseLen
		n.SetPlan(nil)
		return n
	}
	return &EquivocatorNode{G: g, Me: me, PhaseLen: phaseLen}
}

// AcquireForger returns a forging node equivalent to
// NewFastForger(g, me, phaseLen, seed), recycled when the pool has one
// (see AcquireTamper for the fast-source rationale).
func AcquireForger(g *graph.Graph, me graph.NodeID, phaseLen int, seed int64) *ForgerNode {
	if v := forgerPool.Get(); v != nil {
		adversaryReuses.Add(1)
		n := v.(*ForgerNode)
		n.G, n.Me, n.PhaseLen = g, me, phaseLen
		n.PerRound = 3
		n.SetPlan(nil)
		n.Reset(seed)
		return n
	}
	return NewFastForger(g, me, phaseLen, seed)
}

// AcquireAdaptive returns an adaptive node equivalent to
// NewAdaptive(g, me, phaseLen, seed), recycled when the pool has one (see
// AcquireTamper for the fast-source rationale).
func AcquireAdaptive(g *graph.Graph, me graph.NodeID, phaseLen int, seed int64) *AdaptiveNode {
	if v := adaptivePool.Get(); v != nil {
		adversaryReuses.Add(1)
		n := v.(*AdaptiveNode)
		n.G, n.Me, n.PhaseLen = g, me, phaseLen
		n.SetPlan(nil)
		n.Reset(seed)
		return n
	}
	return NewAdaptive(g, me, phaseLen, seed)
}

// Release returns an adversary obtained from an Acquire function to its
// pool. Only Acquire-obtained nodes may be released: the pools hand out
// fast-source streams, and releasing a default-source NewTamper/NewForger
// node would let a later Acquire return a different stream kind. The
// caller must not step the node after release; recycled run state that
// still references it is safe because pooled runs re-plug the current
// spec's adversaries before stepping. Nodes of non-pooled types are
// ignored.
func Release(nd sim.Node) {
	switch n := nd.(type) {
	case *SilentNode:
		silentPool.Put(n)
	case *TamperNode:
		tamperPool.Put(n)
	case *EquivocatorNode:
		equivocatorPool.Put(n)
	case *ForgerNode:
		forgerPool.Put(n)
	case *AdaptiveNode:
		adaptivePool.Put(n)
	}
}
