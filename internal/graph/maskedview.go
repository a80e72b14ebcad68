package graph

// MaskedView is the incremental connectivity re-analysis behind fault
// injection: a mutable element mask over a static Analysis, with the derived
// quantities — vertex connectivity, minimum degree, shortest paths — of the
// masked residual graph recomputed lazily on topology deltas instead of
// per query.
//
// Invalidation rules (DESIGN.md §15):
//
//   - Connectivity and minimum degree carry a dirty flag: any mask mutation
//     marks them stale, and the next query recomputes over the residual
//     graph (a min-cut per query would be wasted work when a boundary
//     applies several events at once).
//   - The masked shortest-path cache invalidates selectively: a down-event
//     evicts only the entries whose cached path traverses the downed node or
//     edge — every other origin pair keeps its memoized choice. An up-event
//     clears the cache wholesale, since restoring an element can only create
//     shorter paths (a kept entry could then be stale-long, violating the
//     deterministic-BFS contract).
//
// A MaskedView is NOT safe for concurrent use — it belongs to a single run's
// round loop, unlike the immutable Analysis it wraps. The unmasked view
// answers every query from the static analysis' own caches.
type MaskedView struct {
	a        *Analysis
	down     Set // masked nodes
	edgeDown map[Edge]bool
	// downEdges counts masked links (zero with down empty: fast path).
	downEdges int

	// dirty marks conn/minDeg stale; they are recomputed on next query.
	dirty  bool
	conn   int
	minDeg int

	// sp caches masked shortest-path queries (selectively invalidated; see
	// above). Entries hold nil for "no path exists under this mask".
	sp map[spKey]Path
}

// NewMaskedView returns an unmasked view over the analysis.
func NewMaskedView(a *Analysis) *MaskedView {
	return &MaskedView{
		a:        a,
		edgeDown: make(map[Edge]bool),
		sp:       make(map[spKey]Path),
	}
}

// Analysis returns the wrapped static analysis.
func (v *MaskedView) Analysis() *Analysis { return v.a }

// Masked reports whether any element is currently masked.
func (v *MaskedView) Masked() bool { return v.down != 0 || v.downEdges > 0 }

// NodeDown reports whether node u is currently masked.
func (v *MaskedView) NodeDown(u NodeID) bool { return v.down.Contains(u) }

// SetNodeDown masks or restores node u (faultinject.Mask).
func (v *MaskedView) SetNodeDown(u NodeID, down bool) {
	if !v.a.g.valid(u) || v.down.Contains(u) == down {
		return
	}
	if down {
		v.down.Add(u)
		v.invalidateNode(u)
	} else {
		v.down.Remove(u)
		v.invalidateAll()
	}
	v.dirty = true
}

// SetEdgeDown masks or restores the link {u, v} (faultinject.Mask). Links
// absent from the static graph are ignored.
func (v *MaskedView) SetEdgeDown(a, b NodeID, down bool) {
	if !v.a.g.HasEdge(a, b) {
		return
	}
	e := Edge{U: a, V: b}.Normalize()
	if v.edgeDown[e] == down {
		return
	}
	if down {
		v.edgeDown[e] = true
		v.downEdges++
		v.invalidateEdge(e)
	} else {
		delete(v.edgeDown, e)
		v.downEdges--
		v.invalidateAll()
	}
	v.dirty = true
}

// ResetMask restores the unmasked view (recycled run state).
func (v *MaskedView) ResetMask() {
	if !v.Masked() {
		return
	}
	clear(v.edgeDown)
	v.down, v.downEdges = 0, 0
	v.invalidateAll()
	v.dirty = true
}

// invalidateNode evicts cached paths traversing node u.
func (v *MaskedView) invalidateNode(u NodeID) {
	for k, p := range v.sp {
		if p.Contains(u) {
			delete(v.sp, k)
		}
	}
}

// invalidateEdge evicts cached paths traversing edge e.
func (v *MaskedView) invalidateEdge(e Edge) {
	for k, p := range v.sp {
		for i := 0; i+1 < len(p); i++ {
			a, b := p[i], p[i+1]
			if (a == e.U && b == e.V) || (a == e.V && b == e.U) {
				delete(v.sp, k)
				break
			}
		}
	}
}

// invalidateAll clears the masked path cache (an element came back up, so
// shorter paths may exist for any pair).
func (v *MaskedView) invalidateAll() {
	clear(v.sp)
}

// recompute rebuilds connectivity and minimum degree over the residual
// graph: the up-nodes with the unmasked edges among them.
func (v *MaskedView) recompute() {
	v.dirty = false
	if !v.Masked() {
		v.conn = v.a.Connectivity()
		v.minDeg = v.a.MinDegree()
		return
	}
	g := v.a.g
	n := g.N()
	// Compact the up-nodes into a residual graph. Down nodes are removed
	// vertices: they neither count toward degrees nor toward cuts.
	compact := make([]int, n)
	m := 0
	for u := 0; u < n; u++ {
		if v.down.Contains(NodeID(u)) {
			compact[u] = -1
			continue
		}
		compact[u] = m
		m++
	}
	if m <= 1 {
		// Zero or one surviving vertex: nothing is connected to anything.
		v.conn, v.minDeg = 0, 0
		return
	}
	res := New(m)
	for _, e := range g.Edges() {
		cu, cv := compact[e.U], compact[e.V]
		if cu < 0 || cv < 0 || v.edgeDown[e.Normalize()] {
			continue
		}
		// The residual graph is a subgraph of a valid graph; AddEdge cannot
		// fail on in-range distinct endpoints.
		_ = res.AddEdge(NodeID(cu), NodeID(cv))
	}
	if !res.Connected() {
		v.conn = 0
	} else {
		v.conn = res.VertexConnectivity()
	}
	v.minDeg = res.MinDegree()
}

// Connectivity returns the vertex connectivity of the residual graph (0 when
// the mask disconnects it or leaves fewer than two vertices), recomputed
// lazily after mask mutations.
func (v *MaskedView) Connectivity() int {
	if v.dirty {
		v.recompute()
	}
	if !v.Masked() {
		return v.a.Connectivity()
	}
	return v.conn
}

// MinDegree returns the minimum degree of the residual graph, recomputed
// lazily after mask mutations.
func (v *MaskedView) MinDegree() int {
	if v.dirty {
		v.recompute()
	}
	if !v.Masked() {
		return v.a.MinDegree()
	}
	return v.minDeg
}

// ShortestPathExcluding is the masked analogue of
// Analysis.ShortestPathExcluding: the BFS runs over the residual graph
// (masked elements excluded on top of the caller's exclusion set), memoized
// per query with selective invalidation on mask deltas. Unmasked it
// delegates to the static analysis' cache. The result is always a shortest
// residual path (nil when none exists), and repeated queries between mask
// mutations return the identical cached path; a down-event that spares a
// cached path keeps it even where a cold view's BFS might tie-break onto a
// different equal-length path. The returned path is shared; callers must
// not modify it.
func (v *MaskedView) ShortestPathExcluding(s, t NodeID, exclude Set) Path {
	if !v.Masked() {
		return v.a.ShortestPathExcluding(s, t, exclude)
	}
	if v.NodeDown(s) || v.NodeDown(t) {
		return nil
	}
	k := spKey{s, t, exclude}
	if p, ok := v.sp[k]; ok {
		return p
	}
	p := v.searchMasked(s, t, exclude)
	v.sp[k] = p
	return p
}

// searchMasked runs the masked BFS: down nodes join the exclusion set, and
// down edges are skipped by walking candidate paths through the static BFS
// with an edge filter. With no down edges the static BFS over the widened
// exclusion set is exact; with down edges it falls back to a direct BFS over
// the residual adjacency.
func (v *MaskedView) searchMasked(s, t NodeID, exclude Set) Path {
	excl := exclude | v.down
	if v.downEdges == 0 {
		return v.a.g.ShortestPathExcluding(s, t, excl)
	}
	return v.bfsResidual(s, t, excl)
}

// bfsResidual is a plain BFS over the residual adjacency honoring the
// exclusion set excl (which already includes down nodes). Endpoints are
// exempt from the exclusion set, matching Graph.ShortestPathExcluding —
// down endpoints never reach here (the caller nils them out first).
func (v *MaskedView) bfsResidual(s, t NodeID, excl Set) Path {
	g := v.a.g
	n := g.N()
	prev := make([]NodeID, n)
	seen := make([]bool, n)
	for i := range prev {
		prev[i] = -1
	}
	queue := []NodeID{s}
	seen[s] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == t {
			break
		}
		for _, w := range g.AdjList(u) {
			if seen[w] || (w != t && excl.Contains(w)) || v.edgeDown[Edge{U: u, V: w}.Normalize()] {
				continue
			}
			seen[w] = true
			prev[w] = u
			queue = append(queue, w)
		}
	}
	if !seen[t] {
		return nil
	}
	var rev Path
	for u := t; u != -1; u = prev[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
