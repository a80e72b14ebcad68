package graph

// This file implements the Menger-theorem machinery the paper leans on
// (Section 3): vertex connectivity, k internally-disjoint uv-paths, and k
// disjoint Uv-paths (set-to-node), all via unit-capacity max flow on the
// standard vertex-split transformation.
//
// Vertex splitting: each node x becomes x_in -> x_out with capacity 1
// (except designated terminals, which get infinite vertex capacity); each
// undirected edge x-y becomes x_out -> y_in and y_out -> x_in with capacity
// 1. The max s_out -> t_in flow then equals the maximum number of
// internally-disjoint s-t paths.

const flowInf = 1 << 30

// flowNet is a unit/small-capacity flow network with adjacency lists.
type flowNet struct {
	head []int
	to   []int
	next []int
	cap  []int
}

func newFlowNet(nodes int) *flowNet {
	head := make([]int, nodes)
	for i := range head {
		head[i] = -1
	}
	return &flowNet{head: head}
}

// addEdge adds a directed edge u->v with capacity c plus its residual.
func (f *flowNet) addEdge(u, v, c int) {
	f.to = append(f.to, v)
	f.cap = append(f.cap, c)
	f.next = append(f.next, f.head[u])
	f.head[u] = len(f.to) - 1

	f.to = append(f.to, u)
	f.cap = append(f.cap, 0)
	f.next = append(f.next, f.head[v])
	f.head[v] = len(f.to) - 1
}

// maxFlow runs BFS-augmentation (Edmonds–Karp) from s to t, stopping early
// once limit augmenting paths are found (limit <= 0 means unlimited).
func (f *flowNet) maxFlow(s, t, limit int) int {
	if s == t {
		return flowInf
	}
	total := 0
	for limit <= 0 || total < limit {
		// BFS for an augmenting path.
		prevEdge := make([]int, len(f.head))
		for i := range prevEdge {
			prevEdge[i] = -1
		}
		prevEdge[s] = -2
		queue := []int{s}
		found := false
		for len(queue) > 0 && !found {
			u := queue[0]
			queue = queue[1:]
			for e := f.head[u]; e != -1; e = f.next[e] {
				v := f.to[e]
				if f.cap[e] <= 0 || prevEdge[v] != -1 {
					continue
				}
				prevEdge[v] = e
				if v == t {
					found = true
					break
				}
				queue = append(queue, v)
			}
		}
		if !found {
			break
		}
		// All capacities on terminal-relevant arcs are 1 here, so each
		// augmentation pushes exactly one unit.
		for v := t; v != s; {
			e := prevEdge[v]
			f.cap[e]--
			f.cap[e^1]++
			v = f.to[e^1]
		}
		total++
	}
	return total
}

// splitIndex maps node x to its split pair (x_in, x_out) in the flow net.
func splitIndex(x NodeID) (in, out int) {
	return 2 * int(x), 2*int(x) + 1
}

// buildSplitNet constructs the vertex-split network for g. The path
// endpoints u and v get infinite internal capacity; nodes in removed get
// zero internal capacity (they may not appear on any path at all, even as
// endpoints). It builds no set from the endpoints, so connectivity works
// on graphs of any size.
func buildSplitNet(g *Graph, u, v NodeID, removed Set) *flowNet {
	f := newFlowNet(2 * g.n)
	for x := 0; x < g.n; x++ {
		in, out := splitIndex(NodeID(x))
		c := 1
		if NodeID(x) == u || NodeID(x) == v {
			c = flowInf
		}
		if removed.Contains(NodeID(x)) {
			c = 0
		}
		f.addEdge(in, out, c)
	}
	for _, e := range g.Edges() {
		_, uo := splitIndex(e.U)
		vi, _ := splitIndex(e.V)
		_, vo := splitIndex(e.V)
		ui, _ := splitIndex(e.U)
		f.addEdge(uo, vi, 1)
		f.addEdge(vo, ui, 1)
	}
	return f
}

// MaxDisjointPathCount returns the maximum number of internally-disjoint
// uv-paths in g (paths sharing only the endpoints u and v). If u and v are
// adjacent the direct edge counts as one path. u == v yields a very large
// count (convention: unconstrained).
func (g *Graph) MaxDisjointPathCount(u, v NodeID) int {
	if !g.valid(u) || !g.valid(v) {
		return 0
	}
	if u == v {
		return flowInf
	}
	f := buildSplitNet(g, u, v, 0)
	_, uo := splitIndex(u)
	vi, _ := splitIndex(v)
	return f.maxFlow(uo, vi, 0)
}

// VertexConnectivity returns the vertex connectivity of g: the largest k
// such that g is k-connected (n > k and removing fewer than k vertices
// cannot disconnect g). A complete graph on n nodes has connectivity n-1.
// Disconnected graphs (and the empty graph) have connectivity 0.
func (g *Graph) VertexConnectivity() int {
	n := g.n
	if n <= 1 {
		return 0
	}
	if !g.Connected() {
		return 0
	}
	// Standard reduction: κ(G) = min over non-adjacent pairs (u,v) of the
	// max number of disjoint uv-paths. It suffices to fix u among a set of
	// minDegree+1 nodes (a vertex not in some minimum cut) — we use the
	// simple exact variant: min over u in {0..δ}, v non-adjacent to u,
	// plus pairs among neighbors. For the small graphs used here we run
	// the straightforward quadratic-pair version restricted by the
	// classical bound κ <= δ.
	best := g.MinDegree()
	if best >= n-1 {
		// Complete graph.
		return n - 1
	}
	// Even's algorithm style: take vertex u_0 .. u_κ; it is sufficient to
	// compute flows from the first δ+1 vertices to all their non-neighbors
	// and between consecutive neighbor pairs. We keep it simpler and exact:
	// all non-adjacent pairs involving vertices 0..best (since a minimum
	// vertex cut has size <= best, at least one of vertices 0..best lies
	// outside it).
	limit := best
	for ui := 0; ui <= limit && ui < n; ui++ {
		u := NodeID(ui)
		for vi := 0; vi < n; vi++ {
			v := NodeID(vi)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if k := g.MaxDisjointPathCount(u, v); k < best {
				best = k
			}
		}
	}
	return best
}

// IsKConnected reports whether g is k-connected: n > k and no set of fewer
// than k vertices disconnects g (Section 3's definition).
func (g *Graph) IsKConnected(k int) bool {
	if g.n <= k {
		return false
	}
	if k <= 0 {
		return true
	}
	return g.VertexConnectivity() >= k
}

// DisjointPaths returns up to want internally-disjoint uv-paths in g,
// excluding from internal use any node in forbidden (endpoints may be in
// forbidden). It returns fewer than want paths when no more exist. Paths
// are recovered by decomposing a unit max flow, so they are simple and
// pairwise internally disjoint.
func (g *Graph) DisjointPaths(u, v NodeID, want int, forbidden Set) []Path {
	if !g.valid(u) || !g.valid(v) || u == v || want <= 0 {
		return nil
	}
	removed := forbidden
	removed.Remove(u)
	removed.Remove(v)
	f := buildSplitNet(g, u, v, removed)
	_, uo := splitIndex(u)
	vi, _ := splitIndex(v)
	f.maxFlow(uo, vi, want)
	return decomposePaths(g, f, u, v)
}

// DisjointSetPaths returns up to want Uv-paths (from distinct nodes of
// sources to v) that are pairwise node-disjoint except at v, with no path
// using a node of forbidden as an internal node and no path passing
// *through* a source (each path touches sources only at its origin). It
// implements the standard Menger corollary used in Lemma 5.5.
func (g *Graph) DisjointSetPaths(sources Set, v NodeID, want int, forbidden Set) []Path {
	if !g.valid(v) || want <= 0 || sources.Len() == 0 || sources.Contains(v) {
		return nil
	}
	removed := forbidden &^ sources &^ NewSet(v)
	// Super-source S connects to every source node's *in* vertex; each
	// source keeps vertex capacity 1 so it can originate at most one path
	// and cannot additionally relay another path.
	f := newFlowNet(2*g.n + 1)
	super := 2 * g.n
	for x := 0; x < g.n; x++ {
		in, out := splitIndex(NodeID(x))
		c := 1
		if NodeID(x) == v {
			c = flowInf
		}
		if removed.Contains(NodeID(x)) {
			c = 0
		}
		f.addEdge(in, out, c)
	}
	for _, e := range g.Edges() {
		_, uo := splitIndex(e.U)
		vi, _ := splitIndex(e.V)
		_, vo := splitIndex(e.V)
		ui, _ := splitIndex(e.U)
		f.addEdge(uo, vi, 1)
		f.addEdge(vo, ui, 1)
	}
	for s := range sources.All() {
		si, _ := splitIndex(s)
		f.addEdge(super, si, 1)
	}
	vi, _ := splitIndex(v)
	f.maxFlow(super, vi, want)
	// Decompose: walk flow-carrying arcs from each saturated super arc.
	var paths []Path
	used := make([]bool, len(f.to))
	for e := f.head[super]; e != -1; e = f.next[e] {
		if e%2 == 1 {
			continue // residual
		}
		if f.cap[e] != 0 {
			continue // not saturated
		}
		start := NodeID(f.to[e] / 2)
		p := tracePath(g, f, start, v, used)
		if p != nil {
			paths = append(paths, p)
		}
	}
	sortPaths(paths)
	return paths
}

// decomposePaths extracts internally disjoint u->v paths from the residual
// state of f (built by buildSplitNet over g).
func decomposePaths(g *Graph, f *flowNet, u, v NodeID) []Path {
	var paths []Path
	used := make([]bool, len(f.to))
	_, uo := splitIndex(u)
	// Count saturated arcs out of u_out and trace each.
	for e := f.head[uo]; e != -1; e = f.next[e] {
		if e%2 == 1 || f.cap[e] != 0 {
			continue
		}
		next := NodeID(f.to[e] / 2)
		if used[e] {
			continue
		}
		used[e] = true
		p := Path{u}
		if next == v {
			p = append(p, v)
			mustValidPath(g, p)
			paths = append(paths, p)
			continue
		}
		rest := tracePath(g, f, next, v, used)
		if rest == nil {
			continue
		}
		p = append(p, rest...)
		mustValidPath(g, p)
		paths = append(paths, p)
	}
	sortPaths(paths)
	return paths
}

// tracePath follows saturated forward arcs from start's in-vertex to v,
// marking arcs as consumed via used. Returns the node path start..v.
func tracePath(g *Graph, f *flowNet, start, v NodeID, used []bool) Path {
	p := Path{start}
	cur := start
	for cur != v {
		_, curOut := splitIndex(cur)
		advanced := false
		for e := f.head[curOut]; e != -1; e = f.next[e] {
			if e%2 == 1 || f.cap[e] != 0 || used[e] {
				continue // residual, unsaturated, or consumed
			}
			used[e] = true
			cur = NodeID(f.to[e] / 2)
			p = append(p, cur)
			advanced = true
			break
		}
		if !advanced {
			return nil
		}
		if len(p) > g.n {
			return nil
		}
	}
	return p
}

func sortPaths(paths []Path) {
	// Deterministic order: by origin then lexicographic.
	for i := 1; i < len(paths); i++ {
		for j := i; j > 0 && lessPath(paths[j], paths[j-1]); j-- {
			paths[j], paths[j-1] = paths[j-1], paths[j]
		}
	}
}

func lessPath(a, b Path) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
