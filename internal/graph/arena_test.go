package graph

import (
	"testing"
)

func arenaGraph(t *testing.T) *Graph {
	t.Helper()
	// 5-cycle with one chord: 0-1-2-3-4-0, 0-2.
	return MustFromEdges(5, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0}, {U: 0, V: 2},
	})
}

func TestArenaInternCanonical(t *testing.T) {
	g := arenaGraph(t)
	a := NewPathArena(g)
	p := Path{0, 1, 2, 3}
	id1 := a.Intern(p)
	id2 := a.Intern(p.Clone())
	if id1 == NoPath || id1 != id2 {
		t.Fatalf("interning not canonical: %v vs %v", id1, id2)
	}
	if got := a.Path(id1); got.Key() != "0->1->2->3" {
		t.Fatalf("materialized %v", got)
	}
	if a.Origin(id1) != 0 || a.Last(id1) != 3 || a.PathLen(id1) != 4 {
		t.Fatal("entry metadata wrong")
	}
	if a.Key(id1) != p.Key() {
		t.Fatalf("cached key %q != %q", a.Key(id1), p.Key())
	}
	if a.Parent(id1) != a.Intern(Path{0, 1, 2}) {
		t.Fatal("parent must be the interned prefix")
	}
}

func TestArenaRejectsInvalid(t *testing.T) {
	g := arenaGraph(t)
	a := NewPathArena(g)
	for _, p := range []Path{
		{},           // empty
		{0, 3},       // not an edge
		{0, 1, 0},    // not simple
		{0, 1, 2, 0}, // not simple (cycle)
		{7},          // out of range
	} {
		if id := a.Intern(p); id != NoPath {
			t.Fatalf("invalid path %v interned as %v", p, id)
		}
	}
	if a.Extend(a.Root(0), 3) != NoPath {
		t.Fatal("extension over a non-edge accepted")
	}
	if a.Extend(a.Intern(Path{1, 0}), 1) != NoPath {
		t.Fatal("node-repeating extension accepted")
	}
}

func TestArenaExtendSharesPrefixes(t *testing.T) {
	g := arenaGraph(t)
	a := NewPathArena(g)
	base := a.Intern(Path{0, 1, 2})
	ext := a.Extend(base, 3)
	if ext == NoPath || a.Parent(ext) != base {
		t.Fatalf("extension not prefix-shared: %v parent %v", ext, a.Parent(ext))
	}
	before := a.Len()
	if a.Intern(Path{0, 1, 2, 3}) != ext {
		t.Fatal("re-interning the extended path must find the same id")
	}
	if a.Len() != before {
		t.Fatal("re-interning allocated new entries")
	}
}

func TestArenaContainsAndExcludes(t *testing.T) {
	g := arenaGraph(t)
	a := NewPathArena(g)
	id := a.Intern(Path{0, 1, 2, 3})
	for _, u := range []NodeID{0, 1, 2, 3} {
		if !a.Contains(id, u) {
			t.Fatalf("missing %d", u)
		}
	}
	if a.Contains(id, 4) {
		t.Fatal("contains node off the path")
	}
	// Endpoints may be excluded; internal nodes may not.
	if !a.ExcludesInternal(id, NewSet(0, 3)) {
		t.Fatal("endpoints must not count as internal")
	}
	if a.ExcludesInternal(id, NewSet(2)) {
		t.Fatal("internal node not detected")
	}
	if !a.ExcludesInternal(id, NewSet()) {
		t.Fatal("empty exclusion must pass")
	}
}

func TestArenaDisjointness(t *testing.T) {
	g := MustFromEdges(6, []Edge{
		{U: 0, V: 1}, {U: 1, V: 5}, {U: 0, V: 2}, {U: 2, V: 5},
		{U: 3, V: 1}, {U: 3, V: 4}, {U: 4, V: 5},
	})
	a := NewPathArena(g)
	p1 := a.Intern(Path{0, 1, 5})
	p2 := a.Intern(Path{0, 2, 5})
	p3 := a.Intern(Path{3, 1, 5})
	if !a.InternallyDisjointIDs(p1, p2) {
		t.Fatal("0-1-5 and 0-2-5 share no internal nodes")
	}
	if a.InternallyDisjointIDs(p1, p3) {
		t.Fatal("0-1-5 and 3-1-5 share internal node 1")
	}
	if !a.DisjointExceptLastIDs(p2, p3) {
		t.Fatal("0-2-5 and 3-1-5 share only node 5")
	}
	if a.DisjointExceptLastIDs(p1, p2) {
		t.Fatal("0-1-5 and 0-2-5 share origin 0")
	}
}

// TestArenaIsExtension pins the O(1) identity check: only the arena's own
// slice of the prefix, beside an id that really ends at u, verifies — on a
// growing arena and on a frozen one.
func TestArenaIsExtension(t *testing.T) {
	g := arenaGraph(t)
	a := NewPathArena(g)
	id := a.Intern(Path{0, 1, 2, 3})
	prefix := a.Path(a.Parent(id))
	other := NewPathArena(g)
	otherID := other.Intern(Path{4, 0, 1, 2, 3})
	check := func(stage string) {
		t.Helper()
		if !a.IsExtension(id, prefix, 3) {
			t.Fatalf("%s: true claim rejected", stage)
		}
		if !a.IsExtension(a.Root(4), nil, 4) {
			t.Fatalf("%s: true single-node claim rejected", stage)
		}
		for name, ok := range map[string]bool{
			"equal contents, other slice": a.IsExtension(id, prefix.Clone(), 3),
			"wrong last node":             a.IsExtension(id, prefix, 2),
			"shorter view of the slice":   a.IsExtension(id, prefix[:2], 3),
			"another path's id":           a.IsExtension(a.Parent(id), prefix, 2),
			"id out of range":             a.IsExtension(PathID(a.Len()), prefix, 3),
			"negative id":                 a.IsExtension(NoPath, prefix, 3),
			"another arena's id":          a.IsExtension(otherID, other.Path(other.Parent(otherID)), 3),
			"root id beside a path":       a.IsExtension(a.Root(4), prefix, 4),
			"path id beside nothing":      a.IsExtension(id, nil, 3),
		} {
			if ok {
				t.Fatalf("%s: false claim verified: %s", stage, name)
			}
		}
	}
	check("growing")
	// A prefix that was never materialized cannot be claimed.
	fresh := a.Intern(Path{4, 3, 2})
	if a.IsExtension(fresh, Path{4, 3}, 2) {
		t.Fatal("claim verified against a prefix the arena never handed out")
	}
	a.Freeze()
	check("frozen")
	if !a.IsExtension(fresh, a.Path(a.Parent(fresh)), 2) {
		t.Fatal("frozen arena rejects its own freeze-time slice")
	}
}

// TestArenaFrozenMatchesGrowing freezes an arena holding every simple path
// of the graph and checks that the frozen reads — the child-index Extend,
// Intern, the slab-backed Path — agree with what the growing arena
// answered, and that unknown or invalid extensions report NoPath.
func TestArenaFrozenMatchesGrowing(t *testing.T) {
	g := arenaGraph(t)
	a := NewPathArena(g)
	var all []Path
	for _, u := range g.Nodes() {
		for _, v := range g.Nodes() {
			all = append(all, g.AllSimplePaths(u, v, 0)...)
		}
	}
	ids := make([]PathID, len(all))
	for i, p := range all {
		if ids[i] = a.Intern(p); ids[i] == NoPath {
			t.Fatalf("simple path %v rejected", p)
		}
	}
	early := a.Path(ids[0]) // materialized before the freeze: must survive it
	a.Freeze()
	a.Freeze() // idempotent
	if got := a.Path(ids[0]); &got[0] != &early[0] {
		t.Fatal("freeze rebuilt a slice it had already handed out")
	}
	for i, p := range all {
		if got := a.Intern(p); got != ids[i] {
			t.Fatalf("frozen Intern(%v) = %d, growing gave %d", p, got, ids[i])
		}
		if got := a.Path(ids[i]); got.Key() != p.Key() {
			t.Fatalf("frozen Path(%d) = %v, want %v", ids[i], got, p)
		}
		if got := append(a.Path(ids[i]), 9); len(p) > 0 && &got[0] == &a.Path(ids[i])[0] {
			t.Fatalf("appending to the shared slice of %v did not copy", p)
		}
		for _, u := range g.Nodes() {
			want := NoPath
			if !p.Contains(u) && g.HasEdge(p[len(p)-1], u) {
				want = a.Intern(p.Append(u))
			}
			if got := a.Extend(ids[i], u); got != want {
				t.Fatalf("frozen Extend(%v, %d) = %d, want %d", p, u, got, want)
			}
		}
	}
	if a.Len() != len(all) {
		t.Fatalf("arena holds %d paths, graph has %d simple paths", a.Len(), len(all))
	}
}
