package graph

import (
	"fmt"
	"strconv"
	"strings"
)

// Path is a sequence of nodes in which consecutive nodes are adjacent in
// some graph. The paper (Section 3) uses paths with explicit endpoints; the
// first element is the origin endpoint and the last is the destination.
type Path []NodeID

// String renders the path as "0->3->4".
func (p Path) String() string {
	parts := make([]string, len(p))
	for i, u := range p {
		parts[i] = strconv.Itoa(int(u))
	}
	return strings.Join(parts, "->")
}

// Key returns a canonical map key for the path.
func (p Path) Key() string { return p.String() }

// Clone returns a copy of the path.
func (p Path) Clone() Path {
	c := make(Path, len(p))
	copy(c, p)
	return c
}

// Append returns a new path with u appended ("Π - u" in the paper's
// notation). The receiver is not modified.
func (p Path) Append(u NodeID) Path {
	c := make(Path, len(p)+1)
	copy(c, p)
	c[len(p)] = u
	return c
}

// Contains reports whether u appears anywhere in the path, endpoints
// included.
func (p Path) Contains(u NodeID) bool {
	for _, v := range p {
		if v == u {
			return true
		}
	}
	return false
}

// Internal returns the internal nodes of the path (everything but the two
// endpoints). A path with fewer than three nodes has no internal nodes.
func (p Path) Internal() []NodeID {
	if len(p) <= 2 {
		return nil
	}
	out := make([]NodeID, len(p)-2)
	copy(out, p[1:len(p)-1])
	return out
}

// Excludes reports whether the path excludes set x in the paper's sense:
// no *internal* node of the path belongs to x. Endpoints may belong to x.
func (p Path) Excludes(x Set) bool {
	for _, u := range p.Internal() {
		if x.Contains(u) {
			return false
		}
	}
	return true
}

// IsSimple reports whether no node repeats. It allocates nothing: ids
// 0..63 are tracked in a bitmask, anything else is compared against the
// prefix before it (paths are at most n long).
func (p Path) IsSimple() bool {
	var seen uint64
	for i, u := range p {
		if u >= 0 && u < 64 {
			if seen&(1<<uint(u)) != 0 {
				return false
			}
			seen |= 1 << uint(u)
			continue
		}
		if p[:i].Contains(u) {
			return false
		}
	}
	return true
}

// ValidIn reports whether every consecutive pair of nodes is an edge of g
// and the path is non-empty. A single-node path is valid (the paper uses
// the trivial path Pvv consisting of only node v).
func (p Path) ValidIn(g *Graph) bool {
	if len(p) == 0 {
		return false
	}
	for _, u := range p {
		if !g.valid(u) {
			return false
		}
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			return false
		}
	}
	return true
}

// InternallyDisjoint reports whether p and q share no internal nodes, the
// disjointness notion for uv-paths in Section 3. Endpoints are ignored.
func InternallyDisjoint(p, q Path) bool {
	inP := make(map[NodeID]bool)
	for _, u := range p.Internal() {
		inP[u] = true
	}
	for _, u := range q.Internal() {
		if inP[u] {
			return false
		}
	}
	return true
}

// DisjointExceptLast reports whether p and q share no nodes except their
// common last node, the disjointness notion for Uv-paths in Section 3
// (distinct origin endpoints, shared destination v only).
func DisjointExceptLast(p, q Path) bool {
	if len(p) == 0 || len(q) == 0 {
		return false
	}
	last := p[len(p)-1]
	if q[len(q)-1] != last {
		return false
	}
	inP := make(map[NodeID]bool)
	for _, u := range p[:len(p)-1] {
		inP[u] = true
	}
	for _, u := range q[:len(q)-1] {
		if inP[u] {
			return false
		}
	}
	return true
}

// ShortestPathExcluding returns a shortest uv-path whose internal nodes
// avoid the exclude set (endpoints may be members of exclude), or nil if no
// such path exists. This realizes step (b) of Algorithm 1: "identify a
// single uv-path Puv that excludes F" (Lemma 5.4 guarantees existence under
// the theorem's conditions).
func (g *Graph) ShortestPathExcluding(u, v NodeID, exclude Set) Path {
	if !g.valid(u) || !g.valid(v) {
		return nil
	}
	if u == v {
		return Path{u}
	}
	// BFS from u. Intermediate hops must avoid exclude, except that the
	// destination v is always enterable (endpoints may be in exclude).
	prev := make([]NodeID, g.n)
	for i := range prev {
		prev[i] = -1
	}
	visited := make([]bool, g.n)
	visited[u] = true
	queue := []NodeID{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range g.adj[x] {
			if visited[y] {
				continue
			}
			if y == v {
				prev[y] = x
				path := Path{v}
				for at := x; at != -1; at = prev[at] {
					path = append(path, at)
				}
				reverse(path)
				return path
			}
			if exclude.Contains(y) {
				continue
			}
			visited[y] = true
			prev[y] = x
			queue = append(queue, y)
		}
	}
	return nil
}

func reverse(p Path) {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
}

// AllSimplePaths returns every simple path from u to v in g, in a
// deterministic order. Intended for small graphs only (the count can be
// exponential); maxLen bounds the number of nodes on a path (0 means no
// bound).
func (g *Graph) AllSimplePaths(u, v NodeID, maxLen int) []Path {
	if !g.valid(u) || !g.valid(v) {
		return nil
	}
	var out []Path
	onPath := make([]bool, g.n)
	var cur Path
	var dfs func(x NodeID)
	dfs = func(x NodeID) {
		cur = append(cur, x)
		onPath[x] = true
		defer func() {
			cur = cur[:len(cur)-1]
			onPath[x] = false
		}()
		if x == v {
			out = append(out, cur.Clone())
			return
		}
		if maxLen > 0 && len(cur) >= maxLen {
			return
		}
		for _, y := range g.adj[x] {
			if !onPath[y] {
				dfs(y)
			}
		}
	}
	dfs(u)
	return out
}

// mustValidPath panics if p is not a valid path of g; used internally after
// flow decomposition where invalidity indicates a bug.
func mustValidPath(g *Graph, p Path) {
	if !p.ValidIn(g) || !p.IsSimple() {
		panic(fmt.Sprintf("graph: internal error: invalid path %v in %v", p, g))
	}
}
