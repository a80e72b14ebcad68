package graph

import "testing"

func TestPathBasics(t *testing.T) {
	p := Path{0, 1, 2, 3}
	if p.String() != "0->1->2->3" {
		t.Fatalf("String = %q", p.String())
	}
	if !p.Contains(2) || p.Contains(9) {
		t.Fatal("Contains wrong")
	}
	inner := p.Internal()
	if len(inner) != 2 || inner[0] != 1 || inner[1] != 2 {
		t.Fatalf("Internal = %v", inner)
	}
	if len(Path{0, 1}.Internal()) != 0 {
		t.Fatal("2-node path should have no internal nodes")
	}
	if len(Path{0}.Internal()) != 0 {
		t.Fatal("1-node path should have no internal nodes")
	}
}

func TestPathAppendDoesNotAlias(t *testing.T) {
	p := make(Path, 2, 8)
	p[0], p[1] = 0, 1
	q := p.Append(2)
	r := p.Append(3)
	if q[2] != 2 || r[2] != 3 {
		t.Fatalf("append aliasing: q=%v r=%v", q, r)
	}
}

func TestPathExcludes(t *testing.T) {
	p := Path{0, 1, 2, 3}
	if !p.Excludes(NewSet(0, 3)) {
		t.Fatal("endpoints must be allowed in the excluded set")
	}
	if p.Excludes(NewSet(1)) {
		t.Fatal("internal member not detected")
	}
	if !p.Excludes(0) {
		t.Fatal("the empty set should always be excluded")
	}
}

func TestPathSimpleAndValid(t *testing.T) {
	g := cycle(t, 5)
	if !(Path{0, 1, 2}).ValidIn(g) {
		t.Fatal("valid path rejected")
	}
	if (Path{0, 2}).ValidIn(g) {
		t.Fatal("non-edge accepted")
	}
	if (Path{}).ValidIn(g) {
		t.Fatal("empty path accepted")
	}
	if !(Path{3}).ValidIn(g) {
		t.Fatal("trivial path rejected")
	}
	if (Path{0, 1, 0}).IsSimple() {
		t.Fatal("repeated node not detected")
	}
	if !(Path{0, 1, 2}).IsSimple() {
		t.Fatal("simple path rejected")
	}
}

// TestIsSimpleBeyondBitmask covers ids the 64-bit mask does not track:
// large ids, ids that alias mod 64, and negative ones fall back to the
// prefix scan, mixed freely with masked ids; nothing allocates.
func TestIsSimpleBeyondBitmask(t *testing.T) {
	for _, tc := range []struct {
		p    Path
		want bool
	}{
		{Path{}, true},
		{Path{63, 64, 65}, true},
		{Path{1, 65, 129}, true}, // equal mod 64, all distinct
		{Path{64, 1, 64}, false},
		{Path{100, 3, 70, 3}, false},
		{Path{100, 3, 70, 100}, false},
		{Path{-1, 0, -1}, false},
		{Path{-1, 0, -2}, true},
	} {
		if got := tc.p.IsSimple(); got != tc.want {
			t.Errorf("%v.IsSimple() = %v, want %v", tc.p, got, tc.want)
		}
	}
	long := make(Path, 200)
	for i := range long {
		long[i] = NodeID(i)
	}
	if !long.IsSimple() {
		t.Fatal("200 distinct nodes reported as repeating")
	}
	long[199] = 150
	if long.IsSimple() {
		t.Fatal("repeat among ids >= 64 missed")
	}
	if a := testing.AllocsPerRun(20, func() { long.IsSimple() }); a != 0 {
		t.Fatalf("IsSimple allocates %v times per call", a)
	}
}

func TestInternallyDisjoint(t *testing.T) {
	a := Path{0, 1, 2, 5}
	b := Path{0, 3, 4, 5}
	if !InternallyDisjoint(a, b) {
		t.Fatal("disjoint paths rejected")
	}
	c := Path{0, 3, 2, 5}
	if InternallyDisjoint(a, c) {
		t.Fatal("shared internal node 2 not detected")
	}
}

func TestDisjointExceptLast(t *testing.T) {
	a := Path{1, 2, 5}
	b := Path{3, 4, 5}
	if !DisjointExceptLast(a, b) {
		t.Fatal("valid Uv-paths rejected")
	}
	// Shared origin violates Uv-path disjointness.
	c := Path{1, 4, 5}
	if DisjointExceptLast(a, c) {
		t.Fatal("shared origin not detected")
	}
	// Different final endpoints can never be Uv-disjoint companions.
	d := Path{3, 4, 6}
	if DisjointExceptLast(a, d) {
		t.Fatal("different destinations accepted")
	}
}

func TestShortestPathExcluding(t *testing.T) {
	g := cycle(t, 5)
	p := g.ShortestPathExcluding(0, 2, 0)
	if p.Key() != "0->1->2" {
		t.Fatalf("shortest = %v", p)
	}
	p = g.ShortestPathExcluding(0, 2, NewSet(1))
	if p.Key() != "0->4->3->2" {
		t.Fatalf("shortest avoiding 1 = %v", p)
	}
	// Endpoints may be in the excluded set.
	p = g.ShortestPathExcluding(0, 2, NewSet(0, 2))
	if p == nil {
		t.Fatal("endpoint exclusion should be permitted")
	}
	// No path at all.
	if g.ShortestPathExcluding(0, 2, NewSet(1, 3)) != nil {
		t.Fatal("expected nil when separated")
	}
	// Trivial path.
	if got := g.ShortestPathExcluding(3, 3, 0); got.Key() != "3" {
		t.Fatalf("self path = %v", got)
	}
}

func TestAllSimplePaths(t *testing.T) {
	g := cycle(t, 5)
	paths := g.AllSimplePaths(0, 2, 0)
	if len(paths) != 2 {
		t.Fatalf("cycle5 0->2 paths = %v", paths)
	}
	k4 := complete(t, 4)
	// K4 u->v: direct, 2 one-hop, 2 two-hop = 5 simple paths.
	if got := len(k4.AllSimplePaths(0, 3, 0)); got != 5 {
		t.Fatalf("K4 path count = %d, want 5", got)
	}
	// maxLen bounds path node count.
	if got := len(k4.AllSimplePaths(0, 3, 2)); got != 1 {
		t.Fatalf("bounded path count = %d, want 1", got)
	}
}

func TestSetOperations(t *testing.T) {
	s := NewSet(1, 2, 3)
	u := s.Union(NewSet(3, 4))
	if u.Len() != 4 {
		t.Fatalf("union = %v", u)
	}
	i := s.Intersect(NewSet(2, 3, 9))
	if i.Len() != 2 || !i.Contains(2) || !i.Contains(3) {
		t.Fatalf("intersect = %v", i)
	}
	m := s.Minus(NewSet(1))
	if m.Len() != 2 || m.Contains(1) {
		t.Fatalf("minus = %v", m)
	}
	if !s.Equal(NewSet(3, 2, 1)) || s.Equal(NewSet(1, 2)) {
		t.Fatal("Equal wrong")
	}
	if s.String() != "{1 2 3}" {
		t.Fatalf("String = %q", s.String())
	}
	var zero Set
	if zero.Contains(1) || zero.Len() != 0 {
		t.Fatal("zero set misbehaves")
	}
	c := zero
	c.Add(5)
	if !c.Contains(5) || zero.Contains(5) {
		t.Fatal("a copy of a set should be an independent set")
	}
}
