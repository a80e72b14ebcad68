package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// setModel is the reference a Set is checked against: a plain map.
type setModel map[NodeID]bool

func (m setModel) slice() []NodeID {
	var out []NodeID
	for u, in := range m {
		if in {
			out = append(out, u)
		}
	}
	slices.Sort(out)
	return out
}

func (m setModel) String() string {
	parts := make([]string, 0, len(m))
	for _, u := range m.slice() {
		parts = append(parts, fmt.Sprint(u))
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// TestSetMatchesMapModel drives random sequences of every Set operation
// over graphs of up to MaxNodes nodes and requires each result to equal the
// same operation on a map model: membership, cardinality, ascending Slice
// and All, and the String rendering. A copied set must not alias the
// original.
func TestSetMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(MaxNodes)
		random := func() (Set, setModel) {
			var s Set
			m := setModel{}
			for u := range n {
				if rng.Intn(3) == 0 {
					s.Add(NodeID(u))
					m[NodeID(u)] = true
				}
			}
			return s, m
		}
		s, m := random()
		for step := 0; step < 60; step++ {
			u := NodeID(rng.Intn(n))
			switch rng.Intn(6) {
			case 0:
				s.Add(u)
				m[u] = true
			case 1:
				s.Remove(u)
				delete(m, u)
			case 2:
				t2, m2 := random()
				s = s.Union(t2)
				for v := range m2 {
					m[v] = true
				}
			case 3:
				t2, m2 := random()
				s = s.Intersect(t2)
				for v := range m {
					if !m2[v] {
						delete(m, v)
					}
				}
			case 4:
				t2, m2 := random()
				s = s.Minus(t2)
				for v := range m2 {
					delete(m, v)
				}
			case 5:
				c := s
				c.Add(u)
				c.Remove(u)
				if m[u] != s.Contains(u) {
					t.Fatalf("seed %d step %d: changing a copy changed the set", seed, step)
				}
			}
			want := m.slice()
			if got := s.Slice(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Slice = %v, want %v", seed, step, got, want)
			}
			if got := slices.Collect(s.All()); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: All = %v, want %v", seed, step, got, want)
			}
			if s.Len() != len(want) || s.String() != m.String() {
				t.Fatalf("seed %d step %d: Len %d String %s, want %d %s", seed, step, s.Len(), s, len(want), m)
			}
			if v := NodeID(rng.Intn(MaxNodes + 2)); s.Contains(v) != m[v] {
				t.Fatalf("seed %d step %d: Contains(%d) = %v", seed, step, v, s.Contains(v))
			}
			if !s.Equal(NewSet(want...)) {
				t.Fatalf("seed %d step %d: NewSet of the members differs", seed, step)
			}
		}
	}
}

// TestSetRejectsOutOfRangeNodes pins the word's bounds: ids outside
// 0..MaxNodes-1 are never members, Remove ignores them, and Add panics.
func TestSetRejectsOutOfRangeNodes(t *testing.T) {
	s := NewSet(0, MaxNodes-1)
	s.Remove(MaxNodes)
	s.Remove(-1)
	if s.Len() != 2 || s.Contains(MaxNodes) || s.Contains(-1) {
		t.Fatalf("set %v after out-of-range removals", s)
	}
	for _, u := range []NodeID{-1, MaxNodes} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) did not panic", u)
				}
			}()
			s.Add(u)
		}()
	}
}

// TestNewFromEdgesRejectsOversizedGraph pins the node cap of the checked
// constructor.
func TestNewFromEdgesRejectsOversizedGraph(t *testing.T) {
	if _, err := NewFromEdges(MaxNodes+1, nil); err == nil {
		t.Fatal("a graph of more than MaxNodes nodes was accepted")
	}
	if g, err := NewFromEdges(MaxNodes, []Edge{{0, MaxNodes - 1}}); err != nil || !g.HasEdge(0, MaxNodes-1) {
		t.Fatalf("MaxNodes-node graph: %v", err)
	}
}

// TestConnectivityBeyondMaxNodes pins that vertex connectivity, which
// builds no node set, still works on graphs larger than a set holds.
func TestConnectivityBeyondMaxNodes(t *testing.T) {
	n := MaxNodes + 6
	g := New(n)
	for u := 0; u < n; u++ {
		if err := g.AddEdge(NodeID(u), NodeID((u+1)%n)); err != nil {
			t.Fatal(err)
		}
	}
	if k := g.VertexConnectivity(); k != 2 {
		t.Fatalf("%d-cycle connectivity = %d, want 2", n, k)
	}
	if p := g.DisjointPaths(0, MaxNodes+2, 3, 0); len(p) != 2 {
		t.Fatalf("%d-cycle: %d disjoint paths, want 2", n, len(p))
	}
}
