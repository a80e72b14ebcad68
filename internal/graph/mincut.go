package graph

// This file extracts *witnesses* for low connectivity: a concrete minimum
// vertex cut and the (A, B, C) partition it induces. The impossibility
// experiments (Lemma A.2 / D.2) need the actual cut, not just its size,
// and the lbcattack tool uses these to auto-target sub-threshold graphs.

// MinVertexCutBetween returns a minimum set of vertices whose removal
// separates u from v (u, v non-adjacent and never members of the cut). It
// returns nil when u or v is invalid, equal, or adjacent (no vertex cut
// separates adjacent nodes).
func (g *Graph) MinVertexCutBetween(u, v NodeID) []NodeID {
	if !g.valid(u) || !g.valid(v) || u == v || g.HasEdge(u, v) {
		return nil
	}
	// Edge arcs get infinite capacity so the minimum cut is forced onto
	// the in->out vertex arcs; safe because u and v are non-adjacent, so
	// every edge is bounded by a unit vertex arc on at least one side.
	f := buildCutNet(g, u, v)
	_, uo := splitIndex(u)
	vi, _ := splitIndex(v)
	f.maxFlow(uo, vi, 0)
	// Min cut: vertices whose in->out arc crosses the residual-reachable
	// boundary (reachable from source in the residual network).
	reach := f.residualReachable(uo)
	var cut []NodeID
	for x := 0; x < g.n; x++ {
		in, out := splitIndex(NodeID(x))
		if reach[in] && !reach[out] {
			cut = append(cut, NodeID(x))
		}
	}
	return cut
}

// buildCutNet is the vertex-split network used for min-cut extraction:
// unit vertex arcs (terminals unlimited) and infinite edge arcs.
func buildCutNet(g *Graph, u, v NodeID) *flowNet {
	f := newFlowNet(2 * g.n)
	for x := 0; x < g.n; x++ {
		in, out := splitIndex(NodeID(x))
		c := 1
		if NodeID(x) == u || NodeID(x) == v {
			c = flowInf
		}
		f.addEdge(in, out, c)
	}
	for _, e := range g.Edges() {
		_, uo := splitIndex(e.U)
		vi, _ := splitIndex(e.V)
		_, vo := splitIndex(e.V)
		ui, _ := splitIndex(e.U)
		f.addEdge(uo, vi, flowInf)
		f.addEdge(vo, ui, flowInf)
	}
	return f
}

// residualReachable returns the vertices reachable from s via positive
// residual capacity.
func (f *flowNet) residualReachable(s int) []bool {
	reach := make([]bool, len(f.head))
	reach[s] = true
	queue := []int{s}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for e := f.head[x]; e != -1; e = f.next[e] {
			if f.cap[e] > 0 && !reach[f.to[e]] {
				reach[f.to[e]] = true
				queue = append(queue, f.to[e])
			}
		}
	}
	return reach
}

// CutPartition is a vertex cut C together with the two separated sides:
// removing C from the graph leaves A and B disconnected from each other
// (both non-empty, A ∪ B ∪ C = V).
type CutPartition struct {
	A, B, C Set
}

// MinVertexCut returns a global minimum vertex cut of g as a partition
// (A, B, C), or ok=false when no cut exists (complete graphs,
// single-vertex graphs). For disconnected graphs it returns an empty cut
// with the components split between A and B.
func (g *Graph) MinVertexCut() (CutPartition, bool) {
	n := g.n
	if n <= 1 {
		return CutPartition{}, false
	}
	if !g.Connected() {
		comp := g.ReachableFrom(0, 0)
		a := NewSet(comp...)
		b := NewSet()
		for x := 0; x < n; x++ {
			if !a.Contains(NodeID(x)) {
				b.Add(NodeID(x))
			}
		}
		return CutPartition{A: a, B: b, C: NewSet()}, true
	}
	bestSize := n // sentinel: larger than any cut
	var best []NodeID
	var bestPair [2]NodeID
	limit := g.MinDegree()
	for ui := 0; ui <= limit && ui < n; ui++ {
		u := NodeID(ui)
		for vi := 0; vi < n; vi++ {
			v := NodeID(vi)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			cut := g.MinVertexCutBetween(u, v)
			if cut != nil && len(cut) < bestSize {
				bestSize = len(cut)
				best = cut
				bestPair = [2]NodeID{u, v}
			}
		}
	}
	if best == nil {
		return CutPartition{}, false // complete graph: no non-adjacent pair
	}
	c := NewSet(best...)
	a := NewSet(g.ReachableFrom(bestPair[0], c)...)
	b := NewSet()
	for x := 0; x < n; x++ {
		id := NodeID(x)
		if !a.Contains(id) && !c.Contains(id) {
			b.Add(id)
		}
	}
	return CutPartition{A: a, B: b, C: c}, true
}
