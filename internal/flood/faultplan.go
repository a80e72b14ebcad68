package flood

import (
	"container/list"
	"sync"

	"lbcast/internal/graph"
)

// This file extends compile-once propagation plans (plan.go, DESIGN.md §10)
// to crash faults. Crash/silent fault patterns are value-blind, exactly
// like the benign flood — which receipts exist and when they arrive
// depends only on WHICH nodes relay, never on the values carried. A masked
// plan is therefore a full Plan compiled with the silent nodes absent: they
// never initiate, never relay, and their neighbors synthesize the default
// body for them in round 1, exactly as the dynamic step-(a) rule does.
// Honest nodes replay it wholesale. Byte identity holds because masked
// compilation enumerates exactly the receipts, in exactly the order, of the
// dynamic crash execution (the benign enumeration minus the silent nodes,
// with the default-message receipts after each node's round-1 deliveries —
// the dynamic step's synthesize-after-deliver order). Value faults replay
// the benign plan through an Overlay instead (overlay.go); DESIGN.md §13
// has both arguments.

// maskedPlanKey anchors the per-analysis LRU of masked plans in the
// Analysis memo.
type maskedPlanKey struct{}

// planCacheCap bounds the per-analysis masked-plan LRU. Fault patterns in
// Monte Carlo streams are heavy-tailed — a few masks recur constantly —
// so a small LRU captures nearly all replay value with bounded memory.
const planCacheCap = 64

// planLRU is a mutex-guarded bounded LRU keyed by the fault set.
// Compilation happens under the lock: compiles are rare (once per
// observed fault shape) and racing duplicate compiles would double-count
// the compile counters that CI asserts on.
type planLRU struct {
	mu    sync.Mutex
	cap   int
	items map[graph.Set]*list.Element
	order *list.List // front = most recently used
}

type planLRUEntry struct {
	key graph.Set
	val any
}

func newPlanLRU(capacity int) *planLRU {
	return &planLRU{cap: capacity, items: make(map[graph.Set]*list.Element), order: list.New()}
}

// get returns the cached value for key, building and inserting it (and
// evicting the least recently used entry beyond capacity) on a miss.
func (c *planLRU) get(key graph.Set, build func() any) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*planLRUEntry).val
	}
	v := build()
	c.items[key] = c.order.PushFront(&planLRUEntry{key: key, val: v})
	if c.order.Len() > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.items, el.Value.(*planLRUEntry).key)
	}
	return v
}

// Mask returns the set of silent nodes this plan was compiled against,
// empty for the benign all-relays-correct plan.
func (p *Plan) Mask() graph.Set { return p.mask }

// CompileMaskedPlan builds the propagation plan of graph g under a
// crash/silent fault mask: the nodes in silent never start, never deliver,
// and never forward, and every honest node applies the round-1
// default-message rule for its non-initiating neighbors. It is the same
// level-by-level path enumeration as CompilePlan (see compile), with the
// silent nodes' paths left out and their synthesized [u, v] receipts
// accepted after each round-1 delivery, so the schedule records exactly
// the acceptance set, order, and forwards of a dynamic session with those
// nodes crashed from the start. Use MaskedPlanFor to memoize per analysis
// and mask.
func CompileMaskedPlan(g *graph.Graph, silent graph.Set) *Plan {
	p := compile(g, silent)
	p.mask = silent
	planMaskedCompiles.Add(1)
	return p
}

// MaskedPlanFor returns the graph's compiled propagation plan under the
// given crash/silent mask, memoized per analysis in a bounded LRU keyed by
// the mask (benign plans stay on PlanFor's unbounded single-slot memo).
func MaskedPlanFor(a *graph.Analysis, silent graph.Set) *Plan {
	cache := a.Memo(maskedPlanKey{}, func() any { return newPlanLRU(planCacheCap) }).(*planLRU)
	return cache.get(silent, func() any { return CompileMaskedPlan(a.Graph(), silent) }).(*Plan)
}
