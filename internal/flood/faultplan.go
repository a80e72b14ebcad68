package flood

import (
	"container/list"
	"sync"

	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file extends compile-once propagation plans (plan.go, DESIGN.md §10)
// to faulty worlds, in two shapes:
//
//   - Masked plans: crash/silent fault patterns are value-blind, exactly
//     like the benign flood — which receipts exist and when they arrive
//     depends only on WHICH nodes relay, never on the values carried. A
//     masked plan is therefore a full Plan compiled with the silent nodes
//     absent: they never initiate, never relay, and their neighbors
//     synthesize the default body for them in round 1, exactly as the
//     dynamic step-(a) rule does. Honest nodes replay it wholesale.
//
//   - Delta plans: tamper/equivocation faults ARE value-dependent, so a
//     full replay is impossible — but only the slots a faulty relay can
//     reach are. A delta plan partitions the benign schedule by taint
//     (does the receipt's provenance path touch a faulty node?) and keeps
//     the untainted majority on the bulk fast path: matched arrivals are
//     installed and forwarded straight from the benign plan's compiled
//     records, while anything tainted falls through, message by message,
//     to the unmodified dynamic rules (i)–(iv).
//
// Byte identity survives both: masked compilation enumerates exactly the
// receipts, in exactly the order, of the dynamic crash execution (the
// benign enumeration minus the silent nodes, with the default-message
// receipts after each node's round-1 deliveries — the dynamic step's
// synthesize-after-deliver order), and the delta fast path fires
// only when a delivery provably matches the next untainted compiled record
// (same sender, same canonical body, same interned path), installing
// exactly the state and emitting exactly the forward the dynamic rules
// would. See DESIGN.md §13 for the full argument.

// maskedPlanKey anchors the per-analysis LRU of masked plans in the
// Analysis memo.
type maskedPlanKey struct{}

// deltaPlanKey anchors the per-analysis LRU of delta plans in the
// Analysis memo.
type deltaPlanKey struct{}

// planCacheCap bounds each per-analysis fault-plan LRU. Fault patterns in
// Monte Carlo streams are heavy-tailed — a few masks recur constantly —
// so a small LRU captures nearly all replay value with bounded memory.
const planCacheCap = 64

// planLRU is a mutex-guarded bounded LRU keyed by the canonical fault-set
// string. Compilation happens under the lock: compiles are rare (once per
// observed fault shape) and racing duplicate compiles would double-count
// the compile counters that CI asserts on.
type planLRU struct {
	mu    sync.Mutex
	cap   int
	items map[string]*list.Element
	order *list.List // front = most recently used
}

type planLRUEntry struct {
	key string
	val any
}

func newPlanLRU(capacity int) *planLRU {
	return &planLRU{cap: capacity, items: make(map[string]*list.Element), order: list.New()}
}

// get returns the cached value for key, building and inserting it (and
// evicting the least recently used entry beyond capacity) on a miss.
func (c *planLRU) get(key string, build func() any) any {
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

// Mask returns the set of silent nodes this plan was compiled against, or
// nil for the benign all-relays-correct plan.
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
	p.mask = silent.Clone()
	planMaskedCompiles.Add(1)
	return p
}

// MaskedPlanFor returns the graph's compiled propagation plan under the
// given crash/silent mask, memoized per analysis in a bounded LRU over
// canonical mask renderings (benign plans stay on PlanFor's unbounded
// single-slot memo).
func MaskedPlanFor(a *graph.Analysis, silent graph.Set) *Plan {
	cache := a.Memo(maskedPlanKey{}, func() any { return newPlanLRU(planCacheCap) }).(*planLRU)
	return cache.get(silent.String(), func() any { return CompileMaskedPlan(a.Graph(), silent) }).(*Plan)
}

// DeltaPlan is the untainted fragment of a benign Plan under a set of
// value-faulty nodes: the subsequence of every node's compiled receipt
// schedule whose provenance paths avoid the faulty set entirely. Honest
// nodes in a tamper/equivocation world run their full dynamic flooder but
// route each arriving delivery through a matched-arrival cursor over this
// fragment — a delivery that provably matches the next untainted compiled
// record is installed and forwarded straight from the benign plan
// (bulk-install semantics, pre-boxed outbox), while everything else falls
// through to the unmodified dynamic rules. A DeltaPlan is immutable and
// safe for concurrent use.
type DeltaPlan struct {
	base   *Plan
	faulty graph.Set
	sched  []deltaSchedule // per receiving node
}

// deltaSchedule is one node's untainted receipt subsequence.
type deltaSchedule struct {
	// idx[i] is the base-schedule index of untainted entry i. The delivery
	// that produces it is the one whose provenance Π·u is the base
	// schedule's parents[idx[i]] — that path fixes both the wire path Π and
	// the direct sender u.
	idx []int32
	// roundOff[r] .. roundOff[r+1] bound the entries expected in session
	// round r; round 0 (the node's own Start) is always empty — delta
	// nodes run Start dynamically.
	roundOff []int32
}

// CompileDelta builds the untainted fragment of base under the given
// faulty set. Taint is decided by the arena's node-membership mask, which
// aliases node ids mod 64: on graphs beyond 64 nodes a false positive can
// spuriously demote an untainted entry to the dynamic path (hit-rate cost
// only), but a false negative — a tainted entry kept on the fast path —
// is impossible, since the faulty node's bit is set in both masks. Use
// DeltaPlanFor to memoize per analysis and faulty set.
func CompileDelta(base *Plan, faulty graph.Set) *DeltaPlan {
	fm := graph.SetMask(faulty)
	dp := &DeltaPlan{base: base, faulty: faulty.Clone(), sched: make([]deltaSchedule, len(base.sched))}
	for v := range base.sched {
		bs := &base.sched[v]
		ds := &dp.sched[v]
		ds.roundOff = make([]int32, len(bs.roundOff))
		for r := 1; r+1 < len(bs.roundOff); r++ {
			for i := bs.roundOff[r]; i < bs.roundOff[r+1]; i++ {
				if base.arena.Mask(bs.pids[i])&fm == 0 {
					ds.idx = append(ds.idx, i)
				}
			}
			ds.roundOff[r+1] = int32(len(ds.idx))
		}
	}
	return dp
}

// DeltaPlanFor returns the untainted delta of the graph's benign plan
// under the given faulty set, memoized per analysis in a bounded LRU.
// Deltas are always compiled against the analysis's benign plan, so the
// faulty set alone keys the cache.
func DeltaPlanFor(a *graph.Analysis, faulty graph.Set) *DeltaPlan {
	base := PlanFor(a)
	cache := a.Memo(deltaPlanKey{}, func() any { return newPlanLRU(planCacheCap) }).(*planLRU)
	return cache.get(faulty.String(), func() any { return CompileDelta(base, faulty) }).(*DeltaPlan)
}

// Base returns the benign plan the delta was compiled against.
func (dp *DeltaPlan) Base() *Plan { return dp.base }

// Faulty returns the set of value-faulty nodes the delta excludes.
func (dp *DeltaPlan) Faulty() graph.Set { return dp.faulty }

// DeliverDelta is Deliver with the delta fast path: each delivery whose
// provenance Π·u — resolved once, through the hint or by interning — is the
// one the cursor over this round's untainted compiled entries expects, and
// whose body is a canonical value body, is installed and forwarded straight
// from the base plan's records (rule-(ii) key insertion included, so the
// flooder's state stays bit-identical to the dynamic machine's). Everything
// else, and everything after a cursor desync, takes the dynamic rules
// verbatim. The fast path can only fire on deliveries the dynamic rules
// would accept: the compiled entry pins sender, body, and path, faulty
// influence always taints the engine-trusted provenance (so a forgery can
// never match an untainted entry), and honest senders emit each compiled
// message exactly once in compiled order. The compiled records name paths
// by the base plan's PathIDs, so only a flooder on that plan's arena can
// match them; on any other arena every delivery takes the dynamic rules.
func (f *Flooder) DeliverDelta(dp *DeltaPlan, r int, inbox []sim.Delivery) []sim.Outgoing {
	if f.arena != dp.base.arena {
		return f.Deliver(inbox)
	}
	bs := &dp.base.sched[f.me]
	ds := &dp.sched[f.me]
	var cur, end int32
	if r >= 0 && r < len(ds.roundOff)-1 {
		cur, end = ds.roundOff[r], ds.roundOff[r+1]
	}
	out := f.fwdBuf[:0]
	for _, d := range inbox {
		m, ok := d.Payload.(Msg)
		if !ok {
			continue
		}
		full := f.provenance(d.From, &m)
		if full == graph.NoPath {
			continue
		}
		// One of the two canonical value bodies (anything else — including
		// a forged non-canonical spelling — takes the dynamic path) along
		// exactly the provenance the compiler recorded.
		if cur < end && full == bs.parents[ds.idx[cur]] && (m.Body == canonValueBodies[0] || m.Body == canonValueBodies[1]) {
			idx := ds.idx[cur]
			cur++
			f.take(EmptySlot, full)
			if len(m.Pi) == 0 {
				f.initiatedBy[d.From] = true
			}
			f.store.Add(Receipt{Origin: bs.origins[idx], PathID: bs.pids[idx], Body: m.Body})
			out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: dp.base.Box(m.Body, bs.pids[idx])})
			continue
		}
		if fwd, accepted := f.accept(&m, full); accepted {
			out = append(out, fwd)
		}
	}
	f.fwdBuf = out
	return out
}
