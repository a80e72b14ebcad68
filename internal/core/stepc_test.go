package core

import (
	"testing"

	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// TestSelectAvBvFourCases pins each branch of the step-(c) case analysis
// to the paper's Algorithm 1 box.
func TestSelectAvBvFourCases(t *testing.T) {
	f, phi := 2, 2 // Algorithm 1 setting: ϕ = f
	mk := graph.NewSet
	cases := []struct {
		name   string
		zv, nv graph.Set
		fSet   graph.Set
		wantAv graph.Set
	}{
		{
			// |Zv∩F| = 1 ≤ ⌊2/2⌋, |Nv| = 3 > f → case 1: Av = Nv.
			name: "case1", zv: mk(0, 1), nv: mk(2, 3, 4),
			fSet: mk(0, 9), wantAv: mk(2, 3, 4),
		},
		{
			// |Zv∩F| = 1 ≤ 1, |Nv| = 2 ≤ f → case 2: Av = Zv.
			name: "case2", zv: mk(0, 1, 5), nv: mk(2, 3),
			fSet: mk(0, 9), wantAv: mk(0, 1, 5),
		},
		{
			// |Zv∩F| = 2 > 1, |Zv| = 3 > f → case 3: Av = Zv.
			name: "case3", zv: mk(0, 1, 5), nv: mk(2, 3),
			fSet: mk(0, 1), wantAv: mk(0, 1, 5),
		},
		{
			// |Zv∩F| = 2 > 1, |Zv| = 2 ≤ f → case 4: Av = Nv.
			name: "case4", zv: mk(0, 1), nv: mk(2, 3, 4),
			fSet: mk(0, 1), wantAv: mk(2, 3, 4),
		},
	}
	for _, tc := range cases {
		av, bv := selectAvBv(tc.zv, tc.nv, tc.fSet, f, phi)
		if !av.Equal(tc.wantAv) {
			t.Errorf("%s: Av = %v, want %v", tc.name, av, tc.wantAv)
		}
		// Bv is always the complement choice.
		if av.Equal(tc.zv) && !bv.Equal(tc.nv) || av.Equal(tc.nv) && !bv.Equal(tc.zv) {
			t.Errorf("%s: Bv = %v not the complement of Av = %v", tc.name, bv, av)
		}
	}
}

// TestSelectAvBvHybridPhi checks that the hybrid ϕ = f − |T| threshold
// shifts the case boundary as Algorithm 3 requires.
func TestSelectAvBvHybridPhi(t *testing.T) {
	mk := graph.NewSet
	zv, nv := mk(0, 1), mk(2, 3, 4)
	fSet := mk(0)
	// With ϕ = 2 (t=0): |Zv∩F| = 1 ≤ 1 → case 1 (Av = Nv).
	av, _ := selectAvBv(zv, nv, fSet, 2, 2)
	if !av.Equal(nv) {
		t.Fatalf("phi=2: Av = %v", av)
	}
	// With ϕ = 1 (t=1): ⌊1/2⌋ = 0 < 1 = |Zv∩F| and |Zv| = 2 ≤ f → case 4
	// (Av = Nv again, but via the other branch pair).
	av, bv := selectAvBv(zv, nv, fSet, 2, 1)
	if !av.Equal(nv) || !bv.Equal(zv) {
		t.Fatalf("phi=1: Av = %v Bv = %v", av, bv)
	}
}

// TestStepCEmptyAvKeepsGamma pins the empty-Av rule of the phase end: when
// step (c) selects Av = ∅ and the node is in Bv, no Av-path exists, so γ
// must stay. The receipt query reads an empty origin set as "any origin",
// so a phase end that passed the empty Av on would adopt 0 here: on K6
// with T = {0, 1, 2} and f = 3, Zv is empty (nodes 3, 4 and 5 read as 1),
// case 2 gives Av = Zv = ∅ and Bv = {3, 4, 5}, and node 3 holds 0 along
// f+1 = 4 paths disjoint except at 3 ([0 3], [1 3], [2 3], [4 5 3]).
func TestStepCEmptyAvKeepsGamma(t *testing.T) {
	g, err := gen.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	topo := graph.NewAnalysis(g)
	const f, me = 3, graph.NodeID(3)
	phases := []PhaseSpec{{T: graph.NewSet(0, 1, 2), Excl: graph.NewSet(0, 1, 2)}}
	receipts := []struct {
		path graph.Path
		v    sim.Value
	}{
		{graph.Path{3}, sim.One}, {graph.Path{4, 3}, sim.One}, {graph.Path{5, 3}, sim.One},
		{graph.Path{0, 3}, sim.Zero}, {graph.Path{1, 3}, sim.Zero}, {graph.Path{2, 3}, sim.Zero},
		{graph.Path{4, 5, 3}, sim.Zero},
	}
	store := func(arena *graph.PathArena, body func(sim.Value) flood.Body) *flood.ReceiptStore {
		st := flood.NewReceiptStore(arena, flood.NewIdent())
		for _, r := range receipts {
			st.Add(flood.Receipt{Origin: r.path[0], PathID: arena.Intern(r.path), Body: body(r.v)})
		}
		return st
	}

	arena := graph.NewPathArena(g)
	nd := newPhaseNode(topo, f, me, sim.One, phases, arena)
	nd.store = store(arena, flood.CanonValueBody)
	nd.endPhase()
	if nd.Gamma() != sim.One {
		t.Errorf("scalar phase end: γ = %v after a phase with Av = ∅, want 1", nd.Gamma())
	}

	arena = graph.NewPathArena(g)
	vn := newVectorPhaseNode(topo, f, me, []sim.Value{sim.One, sim.One}, phases, arena)
	vn.store = store(arena, func(v sim.Value) flood.Body { return VectorBody{Values: []sim.Value{v, v}} })
	vn.endPhase()
	for l := range 2 {
		if vn.LaneGamma(l) != sim.One {
			t.Errorf("vector phase end: lane %d γ = %v after a phase with Av = ∅, want 1", l, vn.LaneGamma(l))
		}
	}
}

// TestStepCExcludesFT pins the F∪T exclusion of step (c): the f+1
// disjoint Av-paths that carry δ to v must avoid F∪T in their interiors.
// On K6 with f = 1, F = {0} and v = 5 holding 0, step (b) reads 0 from 1
// and 2 along [1 5] and [2 5] and nothing from 0, 3 and 4 but 1 along
// [3 5], so case 1 gives Av = Nv = {0, 3, 4} and Bv = Zv ∋ 5. Value 1
// reaches 5 from Av along [3 5] and [4 0 5]: two paths disjoint except at
// 5, but the second passes through 0 ∈ F, so only f of them count and γ
// must stay 0. Without the exclusion (the control run) the same receipts
// adopt 1.
func TestStepCExcludesFT(t *testing.T) {
	g, err := gen.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	topo := graph.NewAnalysis(g)
	const f, me = 1, graph.NodeID(5)
	receipts := []struct {
		path graph.Path
		v    sim.Value
	}{
		{graph.Path{5}, sim.Zero}, {graph.Path{1, 5}, sim.Zero}, {graph.Path{2, 5}, sim.Zero},
		{graph.Path{3, 5}, sim.One}, {graph.Path{4, 0, 5}, sim.One},
	}
	store := func(arena *graph.PathArena, body func(sim.Value) flood.Body) *flood.ReceiptStore {
		st := flood.NewReceiptStore(arena, flood.NewIdent())
		for _, r := range receipts {
			st.Add(flood.Receipt{Origin: r.path[0], PathID: arena.Intern(r.path), Body: body(r.v)})
		}
		return st
	}
	for _, tc := range []struct {
		name string
		excl graph.Set
		want sim.Value
	}{
		{"F excluded", graph.NewSet(0), sim.Zero},
		{"control without exclusion", 0, sim.One},
	} {
		phases := []PhaseSpec{{F: graph.NewSet(0), Excl: tc.excl}}

		arena := graph.NewPathArena(g)
		nd := newPhaseNode(topo, f, me, sim.Zero, phases, arena)
		nd.store = store(arena, flood.CanonValueBody)
		nd.endPhase()
		if nd.Gamma() != tc.want {
			t.Errorf("%s: scalar phase end: γ = %v, want %v", tc.name, nd.Gamma(), tc.want)
		}

		arena = graph.NewPathArena(g)
		vn := newVectorPhaseNode(topo, f, me, []sim.Value{sim.Zero, sim.Zero}, phases, arena)
		vn.store = store(arena, func(v sim.Value) flood.Body { return VectorBody{Values: []sim.Value{v, v}} })
		vn.endPhase()
		for l := range 2 {
			if vn.LaneGamma(l) != tc.want {
				t.Errorf("%s: vector phase end: lane %d γ = %v, want %v", tc.name, l, vn.LaneGamma(l), tc.want)
			}
		}
	}
}
