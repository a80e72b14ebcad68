// Package graph implements the undirected-graph machinery that the paper's
// algorithms and proofs rely on: adjacency queries, vertex connectivity,
// Menger-style vertex-disjoint path extraction, and path predicates such as
// "path P excludes set F" (Section 3 of the paper).
//
// Graphs here are small (consensus instances with n up to a few dozen
// nodes), so the package favors exact algorithms and clarity over asymptotic
// tuning. All exported operations are deterministic: neighbor lists are kept
// sorted and algorithms iterate in ascending node order.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// NodeID identifies a vertex of a graph. Nodes of a graph with n vertices
// are always 0..n-1.
type NodeID int

// Edge is an undirected edge between two nodes.
type Edge struct {
	U, V NodeID
}

// Normalize returns the edge with endpoints in ascending order.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// String renders the edge as "u-v".
func (e Edge) String() string {
	return fmt.Sprintf("%d-%d", e.U, e.V)
}

var (
	// ErrNodeOutOfRange indicates a node id outside 0..n-1.
	ErrNodeOutOfRange = errors.New("graph: node out of range")
	// ErrSelfLoop indicates an attempt to add a self loop.
	ErrSelfLoop = errors.New("graph: self loops are not allowed")
)

// Graph is a simple undirected graph over nodes 0..n-1.
//
// The zero value is an empty graph with no nodes; use New to create a graph
// with a fixed vertex count. Graph values are mutable until shared; the
// consensus code treats them as immutable after construction.
type Graph struct {
	n   int
	adj [][]NodeID // sorted neighbor lists
	// nodes is the shared Nodes() slice, built by New: concurrent first
	// users of a graph (scheduler workers, parallel trials) only read it.
	nodes []NodeID
	// analysis is the graph's canonical shared Analysis, built on first
	// SharedAnalysis call (see analysis.go).
	analysis atomic.Pointer[Analysis]
}

// New returns an empty graph on n nodes (0..n-1).
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	nodes := make([]NodeID, n)
	for i := range nodes {
		nodes[i] = NodeID(i)
	}
	return &Graph{
		n:     n,
		adj:   make([][]NodeID, n),
		nodes: nodes,
	}
}

// NewFromEdges builds a graph on n nodes with the given edges. It rejects
// graphs of more than MaxNodes nodes.
func NewFromEdges(n int, edges []Edge) (*Graph, error) {
	if n > MaxNodes {
		return nil, fmt.Errorf("graph: %d nodes, more than the %d supported", n, MaxNodes)
	}
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e.U, e.V); err != nil {
			return nil, fmt.Errorf("add edge %v: %w", e, err)
		}
	}
	return g, nil
}

// MustFromEdges is NewFromEdges that panics on error. It is intended for
// statically known graphs in tests and generators.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := NewFromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int {
	total := 0
	for _, nbrs := range g.adj {
		total += len(nbrs)
	}
	return total / 2
}

// Nodes returns all node ids in ascending order. The slice is built once
// per graph and shared by every caller — the graph is immutable and this
// runs in round-loop hot paths — so callers must not modify it.
func (g *Graph) Nodes() []NodeID { return g.nodes }

// valid reports whether u is a node of g.
func (g *Graph) valid(u NodeID) bool {
	return u >= 0 && int(u) < g.n
}

// AddEdge inserts the undirected edge u-v. Adding an existing edge is a
// no-op.
func (g *Graph) AddEdge(u, v NodeID) error {
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("%w: edge %d-%d on %d nodes", ErrNodeOutOfRange, u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("%w: %d", ErrSelfLoop, u)
	}
	if g.HasEdge(u, v) {
		return nil
	}
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	return nil
}

func insertSorted(s []NodeID, v NodeID) []NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// RemoveEdge deletes the undirected edge u-v if present.
func (g *Graph) RemoveEdge(u, v NodeID) {
	if !g.valid(u) || !g.valid(v) {
		return
	}
	g.adj[u] = removeSorted(g.adj[u], v)
	g.adj[v] = removeSorted(g.adj[v], u)
}

func removeSorted(s []NodeID, v NodeID) []NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// HasEdge reports whether u-v is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if !g.valid(u) || !g.valid(v) {
		return false
	}
	nbrs := g.adj[u]
	if len(nbrs) > hasEdgeScanMax {
		_, ok := slices.BinarySearch(nbrs, v)
		return ok
	}
	for _, w := range nbrs {
		if w >= v {
			return w == v
		}
	}
	return false
}

// hasEdgeScanMax is the longest adjacency row HasEdge scans linearly: on the
// degrees consensus graphs have, a scan of the sorted row beats a binary
// search's mispredicted branches.
const hasEdgeScanMax = 16

// Neighbors returns a copy of u's sorted neighbor list.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	if !g.valid(u) {
		return nil
	}
	out := make([]NodeID, len(g.adj[u]))
	copy(out, g.adj[u])
	return out
}

// AdjList returns u's adjacency list (ascending, like Neighbors) without
// copying. The slice is shared with the graph and must be treated as
// read-only; hot paths — engine routing, per-round neighbor scans — use it
// to avoid one allocation per call, everyone else should prefer Neighbors.
func (g *Graph) AdjList(u NodeID) []NodeID {
	if !g.valid(u) {
		return nil
	}
	return g.adj[u]
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u NodeID) int {
	if !g.valid(u) {
		return 0
	}
	return len(g.adj[u])
}

// MinDegree returns the minimum node degree, or 0 for an empty graph.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := len(g.adj[0])
	for _, nbrs := range g.adj[1:] {
		if len(nbrs) < min {
			min = len(nbrs)
		}
	}
	return min
}

// Edges returns all edges with U < V, in ascending order.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if NodeID(u) < v {
				out = append(out, Edge{U: NodeID(u), V: v})
			}
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u := range g.adj {
		c.adj[u] = make([]NodeID, len(g.adj[u]))
		copy(c.adj[u], g.adj[u])
	}
	return c
}

// SetNeighbors returns the neighborhood of set S: nodes outside S adjacent
// to at least one node of S (Section 3 / Theorem 6.1(iii) of the paper).
func (g *Graph) SetNeighbors(s Set) []NodeID {
	var nb Set
	for u := range s.All() {
		for _, v := range g.adj[u] {
			nb.Add(v)
		}
	}
	return nb.Minus(s).Slice()
}

// Connected reports whether g is connected. The empty graph and the
// single-node graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	return len(g.ReachableFrom(0, 0)) == g.n
}

// ReachableFrom returns all nodes reachable from start in g with the nodes
// of removed deleted (start itself must not be in removed). Result is sorted
// and includes start.
func (g *Graph) ReachableFrom(start NodeID, removed Set) []NodeID {
	if !g.valid(start) || removed.Contains(start) {
		return nil
	}
	visited := make([]bool, g.n)
	visited[start] = true
	queue := []NodeID{start}
	out := []NodeID{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if visited[v] || removed.Contains(v) {
				continue
			}
			visited[v] = true
			queue = append(queue, v)
			out = append(out, v)
		}
	}
	SortNodes(out)
	return out
}

// String renders the graph as "n=5 edges=[0-1 1-2 ...]".
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d edges=[", g.n)
	for i, e := range g.Edges() {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(e.String())
	}
	sb.WriteByte(']')
	return sb.String()
}

// SortNodes sorts a node slice ascending in place.
func SortNodes(s []NodeID) {
	slices.Sort(s)
}
