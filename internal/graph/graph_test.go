package graph

import (
	"sync"
	"testing"
)

func mustEdges(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := NewFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func cycle(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i < n; i++ {
		if err := g.AddEdge(NodeID(i), NodeID((i+1)%n)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func complete(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := g.AddEdge(NodeID(i), NodeID(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	// Duplicate add is a no-op.
	if err := g.AddEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("M after dup = %d, want 1", g.M())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self loop accepted")
	}
	if err := g.AddEdge(0, 5); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("negative accepted")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := mustEdges(t, 3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) {
		t.Fatal("edge not removed")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	g.RemoveEdge(0, 1) // no-op
	if g.M() != 1 {
		t.Fatalf("M = %d after redundant removal", g.M())
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := cycle(t, 5)
	for i := 0; i < 5; i++ {
		if d := g.Degree(NodeID(i)); d != 2 {
			t.Fatalf("degree(%d) = %d, want 2", i, d)
		}
	}
	if g.MinDegree() != 2 {
		t.Fatalf("min degree = %d", g.MinDegree())
	}
	nbrs := g.Neighbors(0)
	if len(nbrs) != 2 || nbrs[0] != 1 || nbrs[1] != 4 {
		t.Fatalf("neighbors(0) = %v", nbrs)
	}
	// Mutating the returned slice must not affect the graph.
	nbrs[0] = 99
	if g.Neighbors(0)[0] != 1 {
		t.Fatal("Neighbors returned shared storage")
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := mustEdges(t, 4, []Edge{{U: 2, V: 3}, {U: 0, V: 1}, {U: 1, V: 3}})
	edges := g.Edges()
	want := []Edge{{U: 0, V: 1}, {U: 1, V: 3}, {U: 2, V: 3}}
	if len(edges) != len(want) {
		t.Fatalf("edges = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edges[%d] = %v, want %v", i, edges[i], want[i])
		}
	}
}

func TestConnected(t *testing.T) {
	if !New(0).Connected() || !New(1).Connected() {
		t.Fatal("trivial graphs should be connected")
	}
	if New(2).Connected() {
		t.Fatal("two isolated nodes are not connected")
	}
	if !cycle(t, 6).Connected() {
		t.Fatal("cycle should be connected")
	}
	g := mustEdges(t, 4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if g.Connected() {
		t.Fatal("two components reported connected")
	}
}

func TestReachableFromWithRemoval(t *testing.T) {
	g := cycle(t, 5)
	got := g.ReachableFrom(0, NewSet(2))
	// Removing 2 from the 5-cycle leaves the path 3-4-0-1.
	want := []NodeID{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("reachable = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reachable = %v, want %v", got, want)
		}
	}
	if r := g.ReachableFrom(2, NewSet(2)); r != nil {
		t.Fatalf("reachable from removed start = %v", r)
	}
}

func TestSetNeighbors(t *testing.T) {
	g := cycle(t, 5)
	nbrs := g.SetNeighbors(NewSet(0, 1))
	want := []NodeID{2, 4}
	if len(nbrs) != 2 || nbrs[0] != want[0] || nbrs[1] != want[1] {
		t.Fatalf("SetNeighbors({0,1}) = %v, want %v", nbrs, want)
	}
}

func TestClone(t *testing.T) {
	g := cycle(t, 4)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("clone shares storage with original")
	}
}

func TestVertexConnectivityKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"cycle5", cycle(t, 5), 2},
		{"complete4", complete(t, 4), 3},
		{"complete7", complete(t, 7), 6},
		{"path3", mustEdges(t, 3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}), 1},
		{"disconnected", mustEdges(t, 4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}}), 0},
		{"single", New(1), 0},
		// Two triangles sharing one vertex: cut vertex -> connectivity 1.
		{"bowtie", mustEdges(t, 5, []Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
			{U: 2, V: 3}, {U: 3, V: 4}, {U: 2, V: 4},
		}), 1},
	}
	for _, tc := range cases {
		if got := tc.g.VertexConnectivity(); got != tc.want {
			t.Errorf("%s: connectivity = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestIsKConnected(t *testing.T) {
	g := cycle(t, 5)
	if !g.IsKConnected(0) || !g.IsKConnected(1) || !g.IsKConnected(2) {
		t.Fatal("cycle5 should be 0,1,2-connected")
	}
	if g.IsKConnected(3) {
		t.Fatal("cycle5 is not 3-connected")
	}
	// n > k requirement: K4 has connectivity 3 but is not 4-connected.
	if complete(t, 4).IsKConnected(4) {
		t.Fatal("K4 cannot be 4-connected (n <= k)")
	}
}

func TestMaxDisjointPathCount(t *testing.T) {
	g := cycle(t, 5)
	if got := g.MaxDisjointPathCount(0, 2); got != 2 {
		t.Fatalf("cycle disjoint paths = %d, want 2", got)
	}
	k7 := complete(t, 7)
	if got := k7.MaxDisjointPathCount(0, 6); got != 6 {
		t.Fatalf("K7 disjoint paths = %d, want 6", got)
	}
	// Adjacent pair in a cycle: direct edge plus the long way round.
	if got := g.MaxDisjointPathCount(0, 1); got != 2 {
		t.Fatalf("adjacent cycle pair = %d, want 2", got)
	}
}

func TestDisjointPathsAreValidAndDisjoint(t *testing.T) {
	g := complete(t, 6)
	paths := g.DisjointPaths(0, 5, 5, 0)
	if len(paths) != 5 {
		t.Fatalf("got %d paths, want 5", len(paths))
	}
	for i, p := range paths {
		if !p.ValidIn(g) || !p.IsSimple() {
			t.Fatalf("path %d invalid: %v", i, p)
		}
		if p[0] != 0 || p[len(p)-1] != 5 {
			t.Fatalf("path %d endpoints wrong: %v", i, p)
		}
		for j := i + 1; j < len(paths); j++ {
			if !InternallyDisjoint(p, paths[j]) {
				t.Fatalf("paths %v and %v share internal nodes", p, paths[j])
			}
		}
	}
}

func TestDisjointPathsRespectsForbidden(t *testing.T) {
	g := cycle(t, 5)
	// Forbid node 1: only the path 0-4-3-2 remains between 0 and 2.
	paths := g.DisjointPaths(0, 2, 2, NewSet(1))
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1: %v", len(paths), paths)
	}
	if paths[0].Contains(1) {
		t.Fatalf("path uses forbidden node: %v", paths[0])
	}
}

func TestDisjointSetPaths(t *testing.T) {
	g := cycle(t, 5)
	// From {1, 4} to 3: paths 1-2-3 and 4-3 are node-disjoint except 3.
	paths := g.DisjointSetPaths(NewSet(1, 4), 3, 2, 0)
	if len(paths) != 2 {
		t.Fatalf("got %d paths: %v", len(paths), paths)
	}
	for i, p := range paths {
		if p[len(p)-1] != 3 {
			t.Fatalf("path %d does not end at 3: %v", i, p)
		}
		if !p.ValidIn(g) || !p.IsSimple() {
			t.Fatalf("invalid path: %v", p)
		}
	}
	if !DisjointExceptLast(paths[0], paths[1]) {
		t.Fatalf("paths not disjoint: %v", paths)
	}
}

func TestDisjointSetPathsOriginsDistinct(t *testing.T) {
	g := complete(t, 6)
	sources := NewSet(0, 1, 2)
	paths := g.DisjointSetPaths(sources, 5, 3, 0)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	seen := NewSet()
	for _, p := range paths {
		if !sources.Contains(p[0]) {
			t.Fatalf("origin %d not a source", p[0])
		}
		if seen.Contains(p[0]) {
			t.Fatalf("duplicate origin %d", p[0])
		}
		seen.Add(p[0])
	}
}

// TestNodesConcurrentFirstUse has several goroutines make the first Nodes
// call on a fresh graph at once, as two lbcastd scheduler workers do on a
// graph's first groups; under -race it fails if Nodes ever writes.
func TestNodesConcurrentFirstUse(t *testing.T) {
	for round := 0; round < 20; round++ {
		g := MustFromEdges(6, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				nodes := g.Nodes()
				if len(nodes) != 6 || nodes[5] != 5 {
					t.Errorf("Nodes() = %v", nodes)
				}
			}()
		}
		wg.Wait()
	}
	if nodes := New(0).Nodes(); len(nodes) != 0 {
		t.Fatalf("empty graph has nodes %v", nodes)
	}
	if c := MustFromEdges(3, []Edge{{U: 0, V: 1}}).Clone(); len(c.Nodes()) != 3 {
		t.Fatalf("clone has nodes %v", c.Nodes())
	}
}

// TestHasEdgeLongRows covers both sides of HasEdge's scan/binary-search
// switch, on a graph with more than 64 nodes: the hub's row is searched,
// the leaves' rows are scanned.
func TestHasEdgeLongRows(t *testing.T) {
	const n = 90
	g := New(n)
	for v := 2; v < n; v += 2 { // hub 0 is adjacent to every even node
		if err := g.AddEdge(0, NodeID(v)); err != nil {
			t.Fatal(err)
		}
	}
	if g.Degree(0) <= hasEdgeScanMax {
		t.Fatalf("hub degree %d does not reach the binary search", g.Degree(0))
	}
	for v := 0; v < n; v++ {
		want := v >= 2 && v%2 == 0
		if got := g.HasEdge(0, NodeID(v)); got != want {
			t.Fatalf("HasEdge(0,%d) = %v, want %v", v, got, want)
		}
		if got := g.HasEdge(NodeID(v), 0); got != want {
			t.Fatalf("HasEdge(%d,0) = %v, want %v", v, got, want)
		}
	}
	if g.HasEdge(0, n) || g.HasEdge(-1, 0) || g.HasEdge(1, 3) {
		t.Fatal("edge reported outside the graph or between non-adjacent leaves")
	}
}
