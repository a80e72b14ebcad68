package sim

import (
	"lbcast/internal/graph"
)

// MaskedTopology is a mutable link-mask view over a static graph: the
// fault-injection engine's routing topology. It satisfies Topology, so an
// engine built over it needs no special handling — the round loop mutates
// the mask between Step calls (safe: the engine steps and routes on the
// caller's goroutine, so no round is in flight then) and the next round's
// transmissions are routed by the updated adjacency.
//
// Semantics: a down node transmits to nobody and is excluded from every
// other sender's receiver list — it keeps executing its protocol, but the
// network has isolated it. A down edge removes exactly that link in both
// directions. Restoring an element re-exposes the static adjacency (a link
// is delivered iff neither endpoint is down and the edge itself is not
// masked). With no elements masked, Receivers returns the graph's own
// adjacency slices — the zero-event schedule costs nothing over
// GraphTopology and is byte-identical to it.
type MaskedTopology struct {
	g        *graph.Graph
	nodeDown []bool
	edgeDown map[graph.Edge]bool
	// downNodes / downEdges count masked elements; both zero means the
	// fast path (static adjacency, no filtering, no copies).
	downNodes, downEdges int

	// epoch increments on every mask mutation; rows caches the filtered
	// receiver list per sender, rebuilt lazily when its rowEpoch is stale.
	// Round loops mutate at most a few boundaries per run, so almost every
	// round serves cached rows.
	epoch    uint64
	rows     [][]graph.NodeID
	rowEpoch []uint64
}

var _ Topology = (*MaskedTopology)(nil)

// NewMaskedTopology returns an unmasked view over g.
func NewMaskedTopology(g *graph.Graph) *MaskedTopology {
	n := g.N()
	return &MaskedTopology{
		g:        g,
		nodeDown: make([]bool, n),
		edgeDown: make(map[graph.Edge]bool),
		rows:     make([][]graph.NodeID, n),
		rowEpoch: make([]uint64, n),
	}
}

// N returns the number of nodes (masking never removes vertices).
func (t *MaskedTopology) N() int { return t.g.N() }

// Graph returns the underlying static graph.
func (t *MaskedTopology) Graph() *graph.Graph { return t.g }

// Masked reports whether any element is currently masked.
func (t *MaskedTopology) Masked() bool { return t.downNodes > 0 || t.downEdges > 0 }

// SetNodeDown masks or restores node u (faultinject.Mask).
func (t *MaskedTopology) SetNodeDown(u graph.NodeID, down bool) {
	if int(u) < 0 || int(u) >= len(t.nodeDown) || t.nodeDown[u] == down {
		return
	}
	t.nodeDown[u] = down
	if down {
		t.downNodes++
	} else {
		t.downNodes--
	}
	t.epoch++
}

// SetEdgeDown masks or restores the link {u, v} (faultinject.Mask). Links
// absent from the static graph are ignored — the mask can never add edges.
func (t *MaskedTopology) SetEdgeDown(u, v graph.NodeID, down bool) {
	if !t.g.HasEdge(u, v) {
		return
	}
	e := graph.Edge{U: u, V: v}.Normalize()
	if t.edgeDown[e] == down {
		return
	}
	if down {
		t.edgeDown[e] = true
		t.downEdges++
	} else {
		delete(t.edgeDown, e)
		t.downEdges--
	}
	t.epoch++
}

// ResetMask restores the unmasked view (for recycled run state). The cached
// rows stay allocated at capacity; the epoch bump invalidates them.
func (t *MaskedTopology) ResetMask() {
	if !t.Masked() {
		return
	}
	for u := range t.nodeDown {
		t.nodeDown[u] = false
	}
	clear(t.edgeDown)
	t.downNodes, t.downEdges = 0, 0
	t.epoch++
}

// linkUp reports whether the link sender→v is currently delivered.
func (t *MaskedTopology) linkUp(sender, v graph.NodeID) bool {
	if t.nodeDown[v] {
		return false
	}
	if t.downEdges == 0 {
		return true
	}
	return !t.edgeDown[graph.Edge{U: sender, V: v}.Normalize()]
}

// Receivers returns, in ascending order, the nodes that currently hear a
// broadcast by sender. Unmasked, it is the graph's shared adjacency slice
// (identical to GraphTopology.Receivers); masked, a cached filtered copy
// rebuilt lazily per mask epoch. The returned slice is read-only.
func (t *MaskedTopology) Receivers(sender graph.NodeID) []graph.NodeID {
	if !t.Masked() {
		return t.g.AdjList(sender)
	}
	if t.nodeDown[sender] {
		return nil
	}
	if t.rowEpoch[sender] == t.epoch && t.rows[sender] != nil {
		return t.rows[sender]
	}
	row := t.rows[sender][:0]
	for _, v := range t.g.AdjList(sender) {
		if t.linkUp(sender, v) {
			row = append(row, v)
		}
	}
	if row == nil {
		// Distinguish "empty but cached" from "never built".
		row = make([]graph.NodeID, 0)
	}
	t.rows[sender] = row
	t.rowEpoch[sender] = t.epoch
	return row
}
