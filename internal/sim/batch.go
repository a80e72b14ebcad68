package sim

import (
	"fmt"
	"strconv"
	"strings"

	"lbcast/internal/graph"
)

// This file implements per-instance slot multiplexing for the batched
// multi-instance engine (eval.RunBatch): B independent consensus instances
// over the same graph run in one round loop, and one physical transmission
// carries all instances' payloads for a node.
//
// A BatchNode wraps the B per-instance protocol nodes of one graph vertex.
// Each round it demultiplexes the vertex's inbox into per-instance
// inboxes, steps every live instance, and merges the instances' outgoing
// transmissions position-wise: the p-th outgoing of every instance (same
// destination) shares one BatchPayload whose Parts slice is indexed by
// instance. Position-wise merging preserves, per instance and per
// receiver, the exact delivery order of an independent run — which is what
// makes batch decisions provably identical to B separate executions (see
// DESIGN.md §7).

// BatchPayload is the multiplexed wire payload of one merged transmission:
// Parts[j] is instance First+j's payload at this position, nil when that
// instance has nothing at it. The First offset keeps the slice compact
// when only a tail of slow instances is still live (the common state late
// in a mixed batch). BatchPayload is immutable after construction (the
// Payload contract).
type BatchPayload struct {
	First int
	Parts []Payload
}

var (
	_ Payload = BatchPayload{}
	_ Payload = (*BatchPayload)(nil) // recycling emits pointer payloads
)

// Key returns the canonical identity of the multiplexed payload: the
// instance-tagged keys of its non-nil parts.
func (p BatchPayload) Key() string {
	var sb strings.Builder
	sb.WriteString("mux[")
	first := true
	for j, part := range p.Parts {
		if part == nil {
			continue
		}
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		sb.WriteString(strconv.Itoa(p.First + j))
		sb.WriteByte(':')
		sb.WriteString(part.Key())
	}
	sb.WriteByte(']')
	return sb.String()
}

// LaneDecider is a Node executing several consensus lanes at once (e.g. a
// value-vector node covering every benign instance of a batch), whose
// lanes decide individually.
type LaneDecider interface {
	Node
	// LaneDecision returns lane l's decided value; ok is false while that
	// lane is undecided.
	LaneDecision(l int) (Value, bool)
}

// BatchNode multiplexes the per-instance protocol nodes of one graph
// vertex into a single engine node. All inner nodes must report the same
// vertex id. Instances are stepped sequentially inside Step, so the inner
// nodes may share single-threaded state with each other (one PathArena per
// vertex).
//
// BatchNode deliberately does not implement Decider: decisions are per
// inner unit — read them from Instance(i) via Decider or LaneDecider; the
// batch runner (not the engine) owns termination.
type BatchNode struct {
	id      graph.NodeID
	inner   []Node
	retired []bool

	// outs collects each instance's outgoings within one Step; subs are
	// the reused per-instance demultiplexed inboxes. Both are valid only
	// inside Step.
	outs [][]Outgoing
	subs [][]Delivery

	// mergedBuf and tosBuf back the merged-transmission build. They are
	// reused every Step unconditionally: the engine consumes the returned
	// slice (routing copies the Outgoing values) before the node steps
	// again, and nothing retains the slice itself.
	mergedBuf []Outgoing
	tosBuf    []graph.NodeID
	// recycle additionally carves BatchPayload.Parts from slabs (one per
	// round parity) instead of boxing a fresh slice per merged
	// transmission, and emits *BatchPayload pointers into a struct slab of
	// the same parity instead of boxing each payload value. See
	// SetRecycling for the safety contract.
	recycle bool
	slabs   [2][]Payload
	bpSlabs [2][]BatchPayload
}

// NewBatchNode wraps the per-instance nodes of vertex id. Every inner node
// must be non-nil and report id.
func NewBatchNode(id graph.NodeID, inner []Node) (*BatchNode, error) {
	if len(inner) == 0 {
		return nil, fmt.Errorf("sim: batch node %d has no instances", id)
	}
	ns := make([]Node, len(inner))
	for i, nd := range inner {
		if nd == nil {
			return nil, fmt.Errorf("sim: batch node %d: nil instance %d", id, i)
		}
		if nd.ID() != id {
			return nil, fmt.Errorf("sim: batch node %d: instance %d reports id %d", id, i, nd.ID())
		}
		ns[i] = nd
	}
	return &BatchNode{
		id:      id,
		inner:   ns,
		retired: make([]bool, len(ns)),
		outs:    make([][]Outgoing, len(ns)),
		subs:    make([][]Delivery, len(ns)),
	}, nil
}

// ID returns the vertex id.
func (bn *BatchNode) ID() graph.NodeID { return bn.id }

// Instances returns the batch width B.
func (bn *BatchNode) Instances() int { return len(bn.inner) }

// Instance returns instance i's inner node.
func (bn *BatchNode) Instance(i int) Node { return bn.inner[i] }

// SetInstance replaces instance i's inner node with nd, which must be
// non-nil and report the vertex id. Run recycling uses this to plug each
// run's caller-owned Byzantine overrides into a pooled multiplexer — the
// honest state is recycled, adversary nodes never are.
func (bn *BatchNode) SetInstance(i int, nd Node) error {
	if nd == nil {
		return fmt.Errorf("sim: batch node %d: nil instance %d", bn.id, i)
	}
	if nd.ID() != bn.id {
		return fmt.Errorf("sim: batch node %d: instance %d reports id %d", bn.id, i, nd.ID())
	}
	bn.inner[i] = nd
	return nil
}

// SetRecycling toggles Parts-slab recycling: merged BatchPayload.Parts
// slices are carved from two slabs alternated by round parity, so the
// steady state boxes no per-transmission slices at all. Parity reuse is
// sound because a merged payload's lifetime is bounded by two rounds — it
// is routed into the next round's inboxes and fully demultiplexed there —
// so the slab written at round r is dead by round r+2. That bound assumes
// nothing else retains payloads: recycling must stay off when the engine
// has an Observer (observers hold payloads past the run and render their
// keys afterwards).
func (bn *BatchNode) SetRecycling(on bool) { bn.recycle = on }

// ResetRetirements clears every instance's retirement, returning a
// recycled BatchNode to its initial all-live state.
func (bn *BatchNode) ResetRetirements() { clear(bn.retired) }

// Retire stops instance i: it is no longer stepped and emits no further
// transmissions. Retirement is driven by the batch runner, which retires
// an instance on every vertex in the same inter-round gap, so the
// instances' executions stay mutually consistent.
func (bn *BatchNode) Retire(i int) { bn.retired[i] = true }

// IgnoresInbox reports whether every live inner instance ignores its
// inbox (see InboxIgnorer): the vertex then needs no demultiplexed
// deliveries at all. Retiring a dynamic instance can turn this on
// mid-run; it can never turn off, matching the engine's contract.
func (bn *BatchNode) IgnoresInbox() bool {
	for i, nd := range bn.inner {
		if bn.retired[i] {
			continue
		}
		ig, ok := nd.(InboxIgnorer)
		if !ok || !ig.IgnoresInbox() {
			return false
		}
	}
	return true
}

// Step demultiplexes the vertex inbox, steps every live instance, and
// merges the instances' outgoings position-wise. For each position p, the
// instances' p-th outgoings are grouped by destination (first-seen order,
// which is deterministic: ascending instance index) and each group becomes
// one merged transmission. An instance contributes at most one payload per
// position, so no merge can reorder a single instance's stream — every
// instance observes exactly the delivery sequence of an independent run.
func (bn *BatchNode) Step(round int, inbox []Delivery) []Outgoing {
	b := len(bn.inner)
	// Demultiplex in one pass over the merged inbox.
	for i := range bn.subs {
		bn.subs[i] = bn.subs[i][:0]
	}
	for _, d := range inbox {
		mp, ok := d.Payload.(BatchPayload)
		if !ok {
			bp, ptr := d.Payload.(*BatchPayload)
			if !ptr {
				continue
			}
			mp = *bp
		}
		for j, part := range mp.Parts {
			i := mp.First + j
			if part == nil || bn.retired[i] {
				continue
			}
			bn.subs[i] = append(bn.subs[i], Delivery{From: d.From, Payload: part})
		}
	}
	maxLen := 0
	for i := 0; i < b; i++ {
		bn.outs[i] = nil
		if bn.retired[i] {
			continue
		}
		out := bn.inner[i].Step(round, bn.subs[i])
		bn.outs[i] = out
		if len(out) > maxLen {
			maxLen = len(out)
		}
	}
	if maxLen == 0 {
		return nil
	}
	merged := bn.mergedBuf[:0]
	tos := bn.tosBuf[:0]
	var slab []Payload
	var bpSlab []BatchPayload
	if bn.recycle {
		slab = bn.slabs[round&1][:0]
		bpSlab = bn.bpSlabs[round&1][:0]
	}
	for p := 0; p < maxLen; p++ {
		tos = tos[:0]
		for i := 0; i < b; i++ {
			if p >= len(bn.outs[i]) {
				continue
			}
			to := bn.outs[i][p].To
			known := false
			for _, t := range tos {
				if t == to {
					known = true
					break
				}
			}
			if !known {
				tos = append(tos, to)
			}
		}
		for _, to := range tos {
			lo, hi := -1, -1
			phantom := true
			for i := 0; i < b; i++ {
				if p < len(bn.outs[i]) && bn.outs[i][p].To == to {
					if lo < 0 {
						lo = i
					}
					hi = i
					if bn.outs[i][p].Payload != Phantom {
						phantom = false
					}
				}
			}
			// A group whose every contribution is the Phantom sentinel
			// stays phantom on the wire: it came entirely from replaying
			// instances, whose receiving counterparts ignore their
			// inboxes, so no demultiplexed content is ever read and the
			// BatchPayload box would be dead weight. The merged
			// transmission itself is still emitted — transmission and
			// delivery counts are part of the byte-identity contract.
			if phantom {
				merged = append(merged, Outgoing{To: to, Payload: Phantom})
				continue
			}
			n := hi - lo + 1
			var parts []Payload
			if bn.recycle {
				if cap(slab)-len(slab) < n {
					// Segments already carved this round keep the old
					// backing array alive through their two-round
					// lifetime; only the slab moves to a larger block.
					slab = make([]Payload, 0, max(2*(cap(slab)+n), 64))
				}
				start := len(slab)
				slab = slab[:start+n]
				parts = slab[start:]
				clear(parts)
			} else {
				parts = make([]Payload, n)
			}
			for i := lo; i <= hi; i++ {
				if p < len(bn.outs[i]) && bn.outs[i][p].To == to {
					parts[i-lo] = bn.outs[i][p].Payload
				}
			}
			if bn.recycle {
				// Pointer payloads carved from the parity struct slab: the
				// interface box holds the pointer directly, so no
				// per-transmission allocation. A slab growth moves future
				// elements to a new array; already-taken pointers keep the
				// old one alive through the payload's two-round lifetime.
				bpSlab = append(bpSlab, BatchPayload{First: lo, Parts: parts})
				merged = append(merged, Outgoing{To: to, Payload: &bpSlab[len(bpSlab)-1]})
			} else {
				merged = append(merged, Outgoing{To: to, Payload: BatchPayload{First: lo, Parts: parts}})
			}
		}
	}
	bn.mergedBuf = merged
	bn.tosBuf = tos
	if bn.recycle {
		bn.slabs[round&1] = slab
		bn.bpSlabs[round&1] = bpSlab
	}
	return merged
}
