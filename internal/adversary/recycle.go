package adversary

import (
	"sync"
	"sync/atomic"

	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file implements adversary recycling for randomized sweeps: per-kind
// free lists that hand out reset strategy nodes instead of constructing
// fresh ones for every fault of every trial. A recycled adversary is
// indistinguishable from a freshly built one — Reset re-derives the seeded
// random stream with exactly the constructor's seed transform, and the
// scratch buffers it keeps (transmission buffers, walk state) carry only
// capacity, never values, across trials. Release drops the node's graph,
// its plan (SetPlan) and its last transmissions, so a listed node keeps
// neither alive. The lists are process-wide: adversary state is
// graph-independent (Acquire re-points the node's graph), so one list
// serves every topology. Each list is LIFO under a mutex, so whether an
// Acquire recycles depends only on the order of Acquires and Releases,
// never on the garbage collector.

// Resettable is the trial-lifecycle contract of a poolable adversary:
// Reset(seed) must restore exactly the observable state the node's
// constructor would produce for the same seed. Nodes whose behavior draws
// no randomness implement it as a no-op.
type Resettable interface {
	Reset(seed int64)
}

// freeList is a LIFO list of released nodes of one kind. It holds at most
// peak nodes, the largest number of its kind acquired and not yet
// released at any one time.
type freeList[T any] struct {
	mu        sync.Mutex
	free      []*T
	out, peak int
}

// get pops the most recently released node, or returns nil when none is
// listed; either way it counts one acquisition.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.out++
	l.peak = max(l.peak, l.out)
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	adversaryReuses.Add(1)
	return x
}

// put lists a released node.
func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.out = max(l.out-1, 0)
	if len(l.free) < l.peak {
		l.free = append(l.free, x)
	}
}

var (
	silentFree      freeList[SilentNode]
	tamperFree      freeList[TamperNode]
	equivocatorFree freeList[EquivocatorNode]
	forgerFree      freeList[ForgerNode]
	adaptiveFree    freeList[AdaptiveNode]

	// adversaryReuses counts list hits: adversaries re-armed by Reset
	// instead of constructed. Exported via ReadRecycleStats for the
	// benchmark counters.
	adversaryReuses atomic.Uint64
)

// ReadRecycleStats returns the cumulative number of adversary instances
// recycled through the strategy free lists (a construction avoided per
// count).
func ReadRecycleStats() (reuses uint64) {
	return adversaryReuses.Load()
}

// AcquireSilent returns a silent node for vertex me, recycled when the
// list has one.
func AcquireSilent(me graph.NodeID) *SilentNode {
	if n := silentFree.get(); n != nil {
		n.Me = me
		return n
	}
	return &SilentNode{Me: me}
}

// AcquireTamper returns a tampering node equivalent to
// NewFastTamper(g, me, phaseLen, seed), recycled when the list has one.
// Reset re-seeds the recycled node's fast source in O(1), so a hit skips
// both the construction and any expensive generator re-initialization.
func AcquireTamper(g *graph.Graph, me graph.NodeID, phaseLen int, seed int64) *TamperNode {
	if n := tamperFree.get(); n != nil {
		n.G, n.Me, n.PhaseLen = g, me, phaseLen
		n.FlipProb, n.DropProb = 0.75, 0.2
		n.Reset(seed)
		return n
	}
	return NewFastTamper(g, me, phaseLen, seed)
}

// AcquireEquivocator returns an equivocating node for vertex me, recycled
// when the list has one.
func AcquireEquivocator(g *graph.Graph, me graph.NodeID, phaseLen int) *EquivocatorNode {
	if n := equivocatorFree.get(); n != nil {
		n.G, n.Me, n.PhaseLen = g, me, phaseLen
		return n
	}
	return &EquivocatorNode{G: g, Me: me, PhaseLen: phaseLen}
}

// AcquireForger returns a forging node equivalent to
// NewFastForger(g, me, phaseLen, seed), recycled when the list has one
// (see AcquireTamper for the fast-source rationale).
func AcquireForger(g *graph.Graph, me graph.NodeID, phaseLen int, seed int64) *ForgerNode {
	if n := forgerFree.get(); n != nil {
		n.G, n.Me, n.PhaseLen = g, me, phaseLen
		n.PerRound = 3
		n.Reset(seed)
		return n
	}
	return NewFastForger(g, me, phaseLen, seed)
}

// AcquireAdaptive returns an adaptive node equivalent to
// NewAdaptive(g, me, phaseLen, seed), recycled when the list has one (see
// AcquireTamper for the fast-source rationale).
func AcquireAdaptive(g *graph.Graph, me graph.NodeID, phaseLen int, seed int64) *AdaptiveNode {
	if n := adaptiveFree.get(); n != nil {
		n.G, n.Me, n.PhaseLen = g, me, phaseLen
		n.Reset(seed)
		return n
	}
	return NewAdaptive(g, me, phaseLen, seed)
}

// Release returns an adversary obtained from an Acquire function to its
// free list, dropping its graph, its plan and its last transmissions. Only
// Acquire-obtained nodes may be released: the lists hand out fast-source
// streams, and releasing a default-source NewTamper/NewForger node would
// let a later Acquire return a different stream kind. The caller must not
// step the node after release; recycled run state that still references
// it is safe because pooled runs re-plug the current spec's adversaries
// before stepping. Nodes of non-recycled types are ignored.
func Release(nd sim.Node) {
	switch n := nd.(type) {
	case *SilentNode:
		silentFree.put(n)
	case *TamperNode:
		n.G = nil
		n.drop()
		tamperFree.put(n)
	case *EquivocatorNode:
		n.G = nil
		n.drop()
		equivocatorFree.put(n)
	case *ForgerNode:
		n.G = nil
		n.drop()
		forgerFree.put(n)
	case *AdaptiveNode:
		n.G = nil
		n.drop()
		adaptiveFree.put(n)
	}
}
