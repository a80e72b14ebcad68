package graph

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMinVertexCutBetween(t *testing.T) {
	g := cycle(t, 5)
	cut := g.MinVertexCutBetween(0, 2)
	if len(cut) != 2 {
		t.Fatalf("cycle cut = %v, want size 2", cut)
	}
	// Removing the cut must disconnect 0 from 2.
	if reach := g.ReachableFrom(0, NewSet(cut...)); contains(reach, 2) {
		t.Fatalf("cut %v does not separate", cut)
	}
	// Adjacent pair: no vertex cut.
	if got := g.MinVertexCutBetween(0, 1); got != nil {
		t.Fatalf("adjacent pair cut = %v", got)
	}
}

func contains(s []NodeID, u NodeID) bool {
	for _, v := range s {
		if v == u {
			return true
		}
	}
	return false
}

func TestMinVertexCutBowtie(t *testing.T) {
	// Two triangles sharing vertex 2: the unique min cut is {2}.
	g := mustEdges(t, 5, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 2, V: 3}, {U: 3, V: 4}, {U: 2, V: 4},
	})
	part, ok := g.MinVertexCut()
	if !ok {
		t.Fatal("no cut found")
	}
	if !part.C.Equal(NewSet(2)) {
		t.Fatalf("cut = %v, want {2}", part.C)
	}
	if part.A.Len() == 0 || part.B.Len() == 0 {
		t.Fatalf("empty side: %+v", part)
	}
	if part.A.Len()+part.B.Len()+part.C.Len() != g.N() {
		t.Fatalf("partition does not cover V: %+v", part)
	}
}

func TestMinVertexCutCompleteGraph(t *testing.T) {
	if _, ok := complete(t, 4).MinVertexCut(); ok {
		t.Fatal("complete graph has no vertex cut")
	}
	if _, ok := New(1).MinVertexCut(); ok {
		t.Fatal("single vertex has no cut")
	}
}

func TestMinVertexCutDisconnected(t *testing.T) {
	g := mustEdges(t, 4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	part, ok := g.MinVertexCut()
	if !ok || part.C.Len() != 0 {
		t.Fatalf("disconnected cut = %+v ok=%v", part, ok)
	}
	if part.A.Len() != 2 || part.B.Len() != 2 {
		t.Fatalf("sides = %+v", part)
	}
}

// TestQuickMinCutMatchesConnectivity: the extracted global minimum cut has
// exactly VertexConnectivity vertices and genuinely disconnects the graph.
func TestQuickMinCutMatchesConnectivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		g := randomGraph(rng, n, 0.45, true)
		kappa := g.VertexConnectivity()
		part, ok := g.MinVertexCut()
		if kappa >= n-1 {
			// Complete graph: no cut expected.
			return !ok
		}
		if !ok {
			t.Logf("seed %d: no cut on non-complete %v", seed, g)
			return false
		}
		if part.C.Len() != kappa {
			t.Logf("seed %d: cut size %d != kappa %d on %v", seed, part.C.Len(), kappa, g)
			return false
		}
		if part.A.Len() == 0 || part.B.Len() == 0 {
			return false
		}
		// No edges may cross between A and B.
		for a := range part.A.All() {
			for _, nb := range g.Neighbors(a) {
				if part.B.Contains(nb) {
					t.Logf("seed %d: edge %d-%d crosses the cut", seed, a, nb)
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

func TestGraphJSONRoundTrip(t *testing.T) {
	g := cycle(t, 6)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != g.String() {
		t.Fatalf("round trip: %s vs %s", back, g)
	}
	if _, err := FromJSON([]byte(`{"n":2,"edges":[{"u":0,"v":9}]}`)); err == nil {
		t.Fatal("invalid edge accepted")
	}
	if _, err := FromJSON([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDOT(t *testing.T) {
	g := cycle(t, 3)
	dot := g.DOT("c3", NewSet(1))
	for _, want := range []string{"graph \"c3\"", "0 -- 1;", "1 [style=filled"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestDistancesAndDiameter(t *testing.T) {
	g := cycle(t, 6)
	d := g.Distances(0)
	want := []int{0, 1, 2, 3, 2, 1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("distances = %v", d)
		}
	}
	if g.Diameter() != 3 {
		t.Fatalf("diameter = %d", g.Diameter())
	}
	dis := mustEdges(t, 3, []Edge{{U: 0, V: 1}})
	if dis.Diameter() != -1 {
		t.Fatal("disconnected diameter should be -1")
	}
	if New(0).Diameter() != -1 {
		t.Fatal("empty diameter should be -1")
	}
}

func TestDegreeSequence(t *testing.T) {
	g := mustEdges(t, 4, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	seq := g.DegreeSequence()
	want := []int{3, 1, 1, 1}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("degree sequence = %v", seq)
		}
	}
}
