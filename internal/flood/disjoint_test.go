package flood

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// testStore builds a ReceiptStore over a complete graph on n nodes, so any
// sequence of distinct nodes is a valid simple path.
type testStore struct {
	st *ReceiptStore
}

func newTestStore(t *testing.T, n int) *testStore {
	t.Helper()
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := g.AddEdge(graph.NodeID(u), graph.NodeID(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return &testStore{st: NewReceiptStore(graph.NewPathArena(g), NewIdent())}
}

func (b *testStore) add(t *testing.T, v sim.Value, path ...graph.NodeID) Receipt {
	t.Helper()
	pid := b.st.Arena().Intern(graph.Path(path))
	if pid == graph.NoPath {
		t.Fatalf("path %v not internable", path)
	}
	r := Receipt{Origin: path[0], PathID: pid, Body: ValueBody{Value: v}}
	b.st.Add(r)
	return r
}

func TestCandidatesFiltering(t *testing.T) {
	b := newTestStore(t, 7)
	b.add(t, sim.One, 0, 1, 4)
	b.add(t, sim.One, 0, 2, 4)
	b.add(t, sim.Zero, 0, 3, 4)
	b.add(t, sim.One, 5, 3, 4)
	b.add(t, sim.One, 0, 1, 4) // duplicate path
	got := Candidates(b.st, Filter{Origins: graph.NewSet(0), Body: ValueKeyID(sim.One)})
	if len(got) != 2 {
		t.Fatalf("candidates = %v", got)
	}
	// Exclusion filter removes paths with internal members of the set.
	got = Candidates(b.st, Filter{Exclude: graph.NewSet(3)})
	for _, r := range got {
		p := b.st.Path(r)
		if p.Contains(3) && p[0] != 3 && p[len(p)-1] != 3 {
			t.Fatalf("excluded internal node survived: %v", p)
		}
	}
}

func TestSelectDisjointExact(t *testing.T) {
	b := newTestStore(t, 7)
	ar := b.st.Arena()
	// Three Uv-paths to 6; paths a and b disjoint, c conflicts with both.
	a := b.add(t, sim.One, 0, 1, 6)
	bb := b.add(t, sim.One, 2, 3, 6)
	c := b.add(t, sim.One, 4, 1, 6) // shares internal node 1 with a
	d := b.add(t, sim.One, 4, 5, 6)

	if got := SelectDisjoint(ar, []Receipt{a, bb, c}, 2, DisjointExceptLast); got == nil {
		t.Fatal("2 disjoint exist (a,b) but not found")
	}
	if got := SelectDisjoint(ar, []Receipt{a, c}, 2, DisjointExceptLast); got != nil {
		t.Fatalf("impossible selection returned %v", got)
	}
	if got := SelectDisjoint(ar, []Receipt{a, bb, c, d}, 3, DisjointExceptLast); got == nil {
		t.Fatal("3 disjoint exist (a,b,d) but not found")
	}
	if got := SelectDisjoint(ar, []Receipt{a, bb, c, d}, 4, DisjointExceptLast); got != nil {
		t.Fatal("4 disjoint cannot exist")
	}
}

func TestSelectDisjointModes(t *testing.T) {
	b := newTestStore(t, 7)
	ar := b.st.Arena()
	// uv-paths share BOTH endpoints: internally disjoint mode accepts
	// them; except-last mode rejects (same origin).
	a := b.add(t, sim.One, 0, 1, 6)
	bb := b.add(t, sim.One, 0, 2, 6)
	if SelectDisjoint(ar, []Receipt{a, bb}, 2, InternallyDisjoint) == nil {
		t.Fatal("internally disjoint uv-paths rejected")
	}
	if SelectDisjoint(ar, []Receipt{a, bb}, 2, DisjointExceptLast) != nil {
		t.Fatal("shared-origin paths accepted in Uv mode")
	}
}

func TestSelectDisjointEdgeCases(t *testing.T) {
	ar := newTestStore(t, 3).st.Arena()
	if got := SelectDisjoint(ar, nil, 0, InternallyDisjoint); got == nil || len(got) != 0 {
		t.Fatal("k=0 should return empty selection")
	}
	if SelectDisjoint(ar, nil, 1, InternallyDisjoint) != nil {
		t.Fatal("no candidates should fail")
	}
}

// TestQuickSelectDisjointSoundness: any selection returned is genuinely
// pairwise disjoint; and the exact search is monotone in k, on a store of
// the largest graph a node set holds.
func TestQuickSelectDisjointSoundness(t *testing.T) {
	b := newTestStore(t, graph.MaxNodes)
	ar := b.st.Arena()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dest := graph.NodeID(graph.MaxNodes - 1)
		var cands []Receipt
		for i := 0; i < 3+rng.Intn(10); i++ {
			ln := 1 + rng.Intn(4)
			p := make(graph.Path, 0, ln+1)
			seen := map[graph.NodeID]bool{dest: true}
			for j := 0; j < ln; j++ {
				v := graph.NodeID(rng.Intn(12))
				if seen[v] {
					continue
				}
				seen[v] = true
				p = append(p, v)
			}
			if len(p) == 0 {
				continue
			}
			p = append(p, dest)
			cands = append(cands, Receipt{Origin: p[0], PathID: ar.Intern(p), Body: ValueBody{Value: sim.One}})
		}
		for k := 1; k <= 4; k++ {
			sel := SelectDisjoint(ar, cands, k, DisjointExceptLast)
			if sel == nil {
				continue
			}
			if len(sel) != k {
				return false
			}
			for i := range sel {
				for j := i + 1; j < len(sel); j++ {
					if !graph.DisjointExceptLast(ar.Path(sel[i].PathID), ar.Path(sel[j].PathID)) {
						return false
					}
				}
			}
		}
		// Monotonicity: if k disjoint exist, k-1 must too.
		for k := 4; k >= 2; k-- {
			if SelectDisjoint(ar, cands, k, DisjointExceptLast) != nil &&
				SelectDisjoint(ar, cands, k-1, DisjointExceptLast) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReceivedOnDisjointPaths(t *testing.T) {
	b := newTestStore(t, 7)
	b.add(t, sim.One, 0, 1, 6)
	b.add(t, sim.One, 2, 3, 6)
	b.add(t, sim.Zero, 4, 5, 6)
	fil := Filter{Body: ValueKeyID(sim.One)}
	if !ReceivedOnDisjointPaths(b.st, fil, 2, DisjointExceptLast) {
		t.Fatal("two disjoint 1-receipts exist")
	}
	if ReceivedOnDisjointPaths(b.st, fil, 3, DisjointExceptLast) {
		t.Fatal("only two 1-receipts exist")
	}
}
