package graph

import (
	"math/rand"
	"testing"
)

// residualReference builds the residual subgraph of g under the given mask
// the slow, obvious way and returns its connectivity and minimum degree —
// the oracle for MaskedView's incremental recompute.
func residualReference(t *testing.T, g *Graph, nodeDown []bool, edgeDown map[Edge]bool) (conn, minDeg int) {
	t.Helper()
	n := g.N()
	compact := make([]int, n)
	m := 0
	for u := 0; u < n; u++ {
		if nodeDown[u] {
			compact[u] = -1
			continue
		}
		compact[u] = m
		m++
	}
	if m <= 1 {
		return 0, 0
	}
	res := New(m)
	for _, e := range g.Edges() {
		cu, cv := compact[e.U], compact[e.V]
		if cu < 0 || cv < 0 || edgeDown[e.Normalize()] {
			continue
		}
		if err := res.AddEdge(NodeID(cu), NodeID(cv)); err != nil {
			t.Fatal(err)
		}
	}
	if !res.Connected() {
		return 0, res.MinDegree()
	}
	return res.VertexConnectivity(), res.MinDegree()
}

// TestMaskedViewUnmaskedDelegates: with nothing masked, every query must
// come from the static analysis' caches.
func TestMaskedViewUnmaskedDelegates(t *testing.T) {
	g := analysisTestGraph(t)
	a := NewAnalysis(g)
	v := NewMaskedView(a)
	if v.Analysis() != a || v.Masked() {
		t.Fatal("fresh view misreports shape")
	}
	if v.Connectivity() != a.Connectivity() || v.MinDegree() != a.MinDegree() {
		t.Error("unmasked view disagrees with static analysis")
	}
	p := v.ShortestPathExcluding(0, 4, 0)
	q := a.ShortestPathExcluding(0, 4, 0)
	if len(p) != len(q) {
		t.Errorf("unmasked path %v, static %v", p, q)
	}
}

// TestMaskedViewMatchesResidualReference drives random mask mutations and
// checks the lazily recomputed connectivity and min degree against a fresh
// residual-subgraph computation after every step.
func TestMaskedViewMatchesResidualReference(t *testing.T) {
	g := analysisTestGraph(t)
	a := NewAnalysis(g)
	v := NewMaskedView(a)
	rng := rand.New(rand.NewSource(9))
	nodeDown := make([]bool, g.N())
	edgeDown := map[Edge]bool{}
	edges := g.Edges()
	for step := 0; step < 120; step++ {
		if rng.Intn(2) == 0 {
			u := NodeID(rng.Intn(g.N()))
			down := rng.Intn(2) == 0
			nodeDown[u] = down
			v.SetNodeDown(u, down)
		} else {
			e := edges[rng.Intn(len(edges))].Normalize()
			down := rng.Intn(2) == 0
			if down {
				edgeDown[e] = true
			} else {
				delete(edgeDown, e)
			}
			v.SetEdgeDown(e.U, e.V, down)
		}
		wantConn, wantDeg := residualReference(t, g, nodeDown, edgeDown)
		if got := v.Connectivity(); got != wantConn {
			t.Fatalf("step %d: Connectivity = %d, want %d", step, got, wantConn)
		}
		if got := v.MinDegree(); got != wantDeg {
			t.Fatalf("step %d: MinDegree = %d, want %d", step, got, wantDeg)
		}
	}
	v.ResetMask()
	if v.Masked() || v.Connectivity() != a.Connectivity() || v.MinDegree() != a.MinDegree() {
		t.Fatal("ResetMask did not restore the static view")
	}
}

// maskedPathLen runs a reference BFS over the residual graph and returns
// the shortest path length in vertices, or 0 when unreachable. Endpoints
// are exempt from the exclusion set (the static BFS contract) but a down
// endpoint is unreachable.
func maskedPathLen(g *Graph, s, t NodeID, nodeDown []bool, edgeDown map[Edge]bool, exclude Set) int {
	if nodeDown[s] || nodeDown[t] {
		return 0
	}
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 1
	queue := []NodeID{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == t {
			return dist[u]
		}
		for _, w := range g.AdjList(u) {
			if dist[w] >= 0 || nodeDown[w] || (w != t && exclude.Contains(w)) || edgeDown[(Edge{U: u, V: w}).Normalize()] {
				continue
			}
			dist[w] = dist[u] + 1
			queue = append(queue, w)
		}
	}
	return 0
}

// TestMaskedViewShortestPaths checks masked path queries against the
// reference BFS across random masks, exclusion sets, and endpoint pairs:
// same reachability, same length, and the returned path actually traverses
// only live elements.
func TestMaskedViewShortestPaths(t *testing.T) {
	g := analysisTestGraph(t)
	a := NewAnalysis(g)
	v := NewMaskedView(a)
	rng := rand.New(rand.NewSource(3))
	nodeDown := make([]bool, g.N())
	edgeDown := map[Edge]bool{}
	edges := g.Edges()
	excls := []Set{0, NewSet(), NewSet(3), NewSet(2, 5)}
	for step := 0; step < 60; step++ {
		if rng.Intn(2) == 0 {
			u := NodeID(rng.Intn(g.N()))
			down := rng.Intn(2) == 0
			nodeDown[u] = down
			v.SetNodeDown(u, down)
		} else {
			e := edges[rng.Intn(len(edges))].Normalize()
			down := rng.Intn(2) == 0
			if down {
				edgeDown[e] = true
			} else {
				delete(edgeDown, e)
			}
			v.SetEdgeDown(e.U, e.V, down)
		}
		for _, excl := range excls {
			s := NodeID(rng.Intn(g.N()))
			d := NodeID(rng.Intn(g.N()))
			if s == d {
				continue
			}
			p := v.ShortestPathExcluding(s, d, excl)
			want := maskedPathLen(g, s, d, nodeDown, edgeDown, excl)
			if (p == nil) != (want == 0) {
				t.Fatalf("step %d %d->%d excl=%v: path %v, reference reachable=%v", step, s, d, excl, p, want != 0)
			}
			if p == nil {
				continue
			}
			if len(p) != want {
				t.Fatalf("step %d %d->%d: path length %d, want %d (%v)", step, s, d, len(p), want, p)
			}
			for i, u := range p {
				if nodeDown[u] || (i > 0 && i < len(p)-1 && excl.Contains(u)) {
					t.Fatalf("step %d: path %v traverses masked/excluded node %d", step, p, u)
				}
				if i+1 < len(p) && edgeDown[(Edge{U: u, V: p[i+1]}).Normalize()] {
					t.Fatalf("step %d: path %v traverses downed edge %d-%d", step, p, u, p[i+1])
				}
			}
			// Memoized: the identical query between mutations returns the
			// cached path verbatim.
			if q := v.ShortestPathExcluding(s, d, excl); len(q) > 0 && &q[0] != &p[0] {
				t.Fatalf("step %d: repeated query rebuilt the path", step)
			}
		}
	}
}

// TestMaskedViewSelectiveInvalidation pins the eviction rules: a
// down-event keeps cached paths it does not traverse (identical backing
// array — the memo survived), evicts the ones it does, and any up-event
// clears wholesale so shorter restored paths win.
func TestMaskedViewSelectiveInvalidation(t *testing.T) {
	g := analysisTestGraph(t) // C8(1,2)
	v := NewMaskedView(NewAnalysis(g))
	// Engage the mask with an element far from the probe paths.
	v.SetNodeDown(5, true)
	pNear := v.ShortestPathExcluding(0, 2, 0) // direct edge 0-2
	pFar := v.ShortestPathExcluding(0, 4, 0)  // e.g. 0-2-4
	if len(pNear) != 2 || len(pFar) != 3 {
		t.Fatalf("unexpected baseline paths %v %v", pNear, pFar)
	}
	// Down node 6: traverses neither cached path — both memos must survive.
	v.SetNodeDown(6, true)
	if q := v.ShortestPathExcluding(0, 2, 0); &q[0] != &pNear[0] {
		t.Error("down-event evicted an untouched cached path")
	}
	if q := v.ShortestPathExcluding(0, 4, 0); &q[0] != &pFar[0] {
		t.Error("down-event evicted an untouched cached path (far pair)")
	}
	// Down edge 0-2: on both cached paths — both evicted, recomputed routes
	// avoid it.
	v.SetEdgeDown(0, 2, true)
	q := v.ShortestPathExcluding(0, 2, 0)
	if len(q) != 3 {
		t.Errorf("rerouted 0->2 path %v, want length 3", q)
	}
	// Up-event: wholesale clear; the direct edge must win again.
	v.SetEdgeDown(0, 2, false)
	if q := v.ShortestPathExcluding(0, 2, 0); len(q) != 2 {
		t.Errorf("restored 0->2 path %v, want the direct edge again", q)
	}
}
