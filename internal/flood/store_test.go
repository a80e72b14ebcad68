package flood

import (
	"fmt"
	"iter"
	"testing"

	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

func TestReceiptStoreIndexes(t *testing.T) {
	b := newTestStore(t, 6)
	st := b.st
	r1 := b.add(t, sim.One, 0, 1, 5)
	r2 := b.add(t, sim.Zero, 0, 2, 5)
	b.add(t, sim.One, 3, 4, 5)
	b.add(t, sim.One, 0, 1, 5) // same path as r1, later acceptance

	if st.Len() != 4 {
		t.Fatalf("len = %d", st.Len())
	}
	if got := collect(st.FromOrigin(0)); len(got) != 3 {
		t.Fatalf("FromOrigin(0) = %v", got)
	}
	if got := collect(st.FromOrigin(2)); got != nil {
		t.Fatalf("FromOrigin(2) = %v", got)
	}
	// ValueAt returns the first acceptance along the exact path.
	if v, ok := st.ValueAt(r1.PathID); !ok || v != sim.One {
		t.Fatalf("ValueAt(r1) = %v %v", v, ok)
	}
	if v, ok := st.ValueAt(r2.PathID); !ok || v != sim.Zero {
		t.Fatalf("ValueAt(r2) = %v %v", v, ok)
	}
	if _, ok := st.ValueAt(st.Arena().Intern(graph.Path{0, 4, 5})); ok {
		t.Fatal("value along unreceived path")
	}
	if got := collect(st.AtPath(r1.PathID)); len(got) != 2 {
		t.Fatalf("AtPath(r1) = %v", got)
	}
	// Acceptance order is preserved globally and per index bucket.
	all := st.All()
	for i := 1; i < len(all); i++ {
		if st.BodyKey(i) == "" {
			t.Fatal("missing cached body key")
		}
	}
}

func TestReceiptStoreNonValueBodies(t *testing.T) {
	b := newTestStore(t, 4)
	st := b.st
	pid := st.Arena().Intern(graph.Path{0, 1})
	st.Add(Receipt{Origin: 0, PathID: pid, Body: testBody{slot: "s", key: "k1"}})
	if _, ok := st.ValueAt(pid); ok {
		t.Fatal("non-value body returned a value")
	}
	st.Add(Receipt{Origin: 0, PathID: pid, Body: ValueBody{Value: sim.One}})
	if v, ok := st.ValueAt(pid); !ok || v != sim.One {
		t.Fatal("value body after non-value body not found")
	}
}

// keysAt renders the body keys recorded along path, in iteration order.
func keysAt(st *ReceiptStore, path graph.PathID) []string {
	var keys []string
	for r := range st.AtPath(path) {
		keys = append(keys, r.Body.Key())
	}
	return keys
}

// TestReceiptStoreChainOrder records several slots along one path,
// interleaved with receipts along other paths on other index pages, and
// requires the path's chain to come back in acceptance order.
func TestReceiptStoreChainOrder(t *testing.T) {
	b := newTestStore(t, 6)
	st := b.st
	a := st.Arena()
	// Intern enough paths that the chains span several index pages.
	var far []graph.PathID
	for _, path := range a.Graph().AllSimplePaths(0, 5, 6) {
		far = append(far, a.Intern(path))
	}
	pid := far[len(far)-1]
	if int(pid) < pathPageSize || int(far[0]) >= pathPageSize {
		t.Fatalf("paths %d and %d do not span pages", far[0], pid)
	}
	var want []string
	for i := 0; i < 5; i++ {
		body := testBody{slot: fmt.Sprint("s", i), key: fmt.Sprint("k", i)}
		st.Add(Receipt{Origin: 0, PathID: pid, Body: body})
		want = append(want, body.key)
		st.Add(Receipt{Origin: 0, PathID: far[i], Body: testBody{slot: "x", key: fmt.Sprint("far", i)}})
	}
	st.Add(Receipt{Origin: 0, PathID: pid, Body: ValueBody{Value: sim.Zero}})
	st.Add(Receipt{Origin: 0, PathID: pid, Body: ValueBody{Value: sim.One}})
	want = append(want, "v:0", "v:1")
	if got := keysAt(st, pid); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("AtPath = %v, want %v", got, want)
	}
	if v, ok := st.ValueAt(pid); !ok || v != sim.Zero {
		t.Fatalf("ValueAt = %v %v, want the first value receipt (0)", v, ok)
	}
	if got := keysAt(st, far[0]); fmt.Sprint(got) != "[far0]" {
		t.Fatalf("AtPath(far[0]) = %v", got)
	}
}

// TestReceiptStoreResetLeavesNoStaleChain recycles a store onto a
// different receipt set: nothing recorded before the Reset may surface
// through the path index, and the new chains must be exactly the new
// receipts.
func TestReceiptStoreResetLeavesNoStaleChain(t *testing.T) {
	b := newTestStore(t, 6)
	st := b.st
	old1 := b.add(t, sim.One, 0, 1, 5)
	b.add(t, sim.One, 0, 1, 5)
	old2 := b.add(t, sim.Zero, 2, 3)
	st.Reset()
	if st.Len() != 0 {
		t.Fatalf("len after Reset = %d", st.Len())
	}
	for _, r := range []Receipt{old1, old2} {
		if got := collect(st.AtPath(r.PathID)); got != nil {
			t.Fatalf("stale receipts along %v after Reset: %v", st.Path(r), got)
		}
		if _, ok := st.ValueAt(r.PathID); ok {
			t.Fatalf("stale value along %v after Reset", st.Path(r))
		}
	}
	n1 := b.add(t, sim.Zero, 4, 3)
	b.add(t, sim.One, 0, 1, 5)
	n2 := b.add(t, sim.One, 4, 3)
	if got := keysAt(st, n1.PathID); fmt.Sprint(got) != "[v:0 v:1]" {
		t.Fatalf("AtPath(4->3) = %v", got)
	}
	if got := keysAt(st, old1.PathID); fmt.Sprint(got) != "[v:1]" {
		t.Fatalf("AtPath(0->1->5) = %v", got)
	}
	if got := collect(st.AtPath(old2.PathID)); got != nil {
		t.Fatalf("AtPath(2->3) = %v", got)
	}
	if got := collect(st.FromOrigin(4)); len(got) != 2 || got[1] != n2 {
		t.Fatalf("FromOrigin(4) = %v", got)
	}
}

// TestPlannedViewReadsMatchTemplate installs every scheduled receipt of a
// compiled plan into a planned view, with fresh bodies, and requires the
// view's path reads to agree with a store that indexed them itself.
func TestPlannedViewReadsMatchTemplate(t *testing.T) {
	g := gen.Figure1a()
	p := CompilePlan(g)
	bodies := make([]Body, g.N())
	for o := range bodies {
		bodies[o] = CanonValueBody(sim.Value(o % 2))
	}
	for v := 0; v < g.N(); v++ {
		view := p.PlannedStore(graph.NodeID(v), nil)
		own := NewReceiptStore(p.Arena(), nil)
		for r := 0; r < p.Rounds(); r++ {
			start := view.Len()
			p.ReplayRoundPhantom(graph.NodeID(v), r, bodies, view, nil)
			for _, rec := range view.All()[start:] {
				own.Add(rec)
			}
		}
		for id := 0; id < p.Arena().Len(); id++ {
			pid := graph.PathID(id)
			vv, vok := view.ValueAt(pid)
			ov, ook := own.ValueAt(pid)
			if vv != ov || vok != ook {
				t.Fatalf("node %d path %v: view ValueAt %v %v, own %v %v", v, p.Arena().Path(pid), vv, vok, ov, ook)
			}
			if got, want := collect(view.AtPath(pid)), collect(own.AtPath(pid)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("node %d path %v: view AtPath %v, own %v", v, p.Arena().Path(pid), got, want)
			}
		}
		for o := 0; o < g.N(); o++ {
			got, want := collect(view.FromOrigin(graph.NodeID(o))), collect(own.FromOrigin(graph.NodeID(o)))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("node %d origin %d: view FromOrigin %v, own %v", v, o, got, want)
			}
		}
	}
}

// testBody is a minimal non-value Body.
type testBody struct{ slot, key string }

func (b testBody) Key() string  { return b.key }
func (b testBody) Slot() string { return b.slot }

// collect drains an iterator into a slice.
func collect(seq iter.Seq[Receipt]) []Receipt {
	var out []Receipt
	for r := range seq {
		out = append(out, r)
	}
	return out
}
