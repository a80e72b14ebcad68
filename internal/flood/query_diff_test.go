package flood

import (
	"math/rand"
	"testing"

	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// This file checks the disjoint-receipt query layer against references
// that share none of its machinery: Candidates against a linear scan with
// a dedup map, and ReceivedOnDisjointPaths against a brute-force subset
// search on materialized paths.

// pathsTo returns every simple path of g ending at v with at most maxLen
// nodes, grouped by node count (byLen[k] holds the k-node paths).
func pathsTo(g *graph.Graph, v graph.NodeID, maxLen int) [][]graph.Path {
	byLen := make([][]graph.Path, maxLen+1)
	var walk func(p graph.Path)
	walk = func(p graph.Path) {
		// p is reversed: p[0] = v, p[len-1] = origin.
		rev := make(graph.Path, len(p))
		for i, u := range p {
			rev[len(p)-1-i] = u
		}
		byLen[len(p)] = append(byLen[len(p)], rev)
		if len(p) == maxLen {
			return
		}
		for _, u := range g.AdjList(p[len(p)-1]) {
			if !p.Contains(u) {
				walk(append(p[:len(p):len(p)], u))
			}
		}
	}
	walk(graph.Path{v})
	return byLen
}

// queryStore is one random receipt store of the differential test with
// the bodies its queries filter on.
type queryStore struct {
	st     *ReceiptStore
	bodies []Body
}

// randomQueryStores builds the stores of one seed over a random connected
// graph on 4–8 nodes, all receipts addressed to one receiver v:
//
//   - benign: value flooding in schedule order (v's own value first, then
//     round r accepts the (r+1)-node paths, in random order within the
//     round), one receipt per path;
//   - forged: the benign store with long out-of-round paths accepted
//     early, so the candidate lists are not length-sorted;
//   - slots: several non-value-slot receipts per path with distinct
//     bodies, repeats included, so a body-filtered query must skip a head
//     that fails its filter and drop a later copy of an earlier match.
//
// Each store also comes as a PlannedView filled with AddPlanned.
func randomQueryStores(t *testing.T, seed int64) (*graph.Graph, []queryStore) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(5)
	g, err := gen.Random(n, 0.4+0.4*rng.Float64(), seed)
	if err != nil {
		t.Fatal(err)
	}
	v := graph.NodeID(rng.Intn(n))
	byLen := pathsTo(g, v, 4)
	a := graph.NewPathArena(g)
	recv := func(p graph.Path, b Body) Receipt {
		return Receipt{Origin: p[0], PathID: a.Intern(p), Body: b}
	}
	vals := make([]sim.Value, n)
	for u := range vals {
		vals[u] = sim.Value(rng.Intn(2))
	}

	var benign []Receipt
	for k := 1; k < len(byLen); k++ {
		for _, i := range rng.Perm(len(byLen[k])) {
			p := byLen[k][i]
			// A value-faulty relay: one path in five carries the other value.
			val := vals[p[0]]
			if rng.Intn(5) == 0 {
				val = 1 - val
			}
			benign = append(benign, recv(p, ValueBody{Value: val}))
		}
	}

	forged := append([]Receipt(nil), benign...)
	for range 1 + rng.Intn(4) {
		long := byLen[len(byLen)-1]
		if len(long) == 0 {
			break
		}
		r := recv(long[rng.Intn(len(long))], ValueBody{Value: sim.Value(rng.Intn(2))})
		at := rng.Intn(len(forged)/2 + 1)
		forged = append(forged[:at], append([]Receipt{r}, forged[at:]...)...)
	}

	pool := []Body{
		testBody{slot: "a", key: "x"}, testBody{slot: "b", key: "y"},
		testBody{slot: "c", key: "z"}, ValueBody{Value: sim.One},
	}
	var slots []Receipt
	for k := 2; k < len(byLen); k++ {
		for _, p := range byLen[k] {
			for range rng.Intn(4) {
				slots = append(slots, recv(p, pool[rng.Intn(len(pool))]))
			}
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })

	valueBodies := []Body{ValueBody{Value: sim.Zero}, ValueBody{Value: sim.One}}
	var out []queryStore
	for _, c := range []struct {
		recs   []Receipt
		bodies []Body
	}{{benign, valueBodies}, {forged, valueBodies}, {slots, pool}} {
		added := NewReceiptStore(a, NewIdentOn(a))
		tmpl := NewReceiptStore(a, nil)
		for _, r := range c.recs {
			added.Add(r)
			tmpl.Add(Receipt{Origin: r.Origin, PathID: r.PathID, Body: CanonValueBody(sim.Zero)})
		}
		planned := tmpl.PlannedView(NewIdentOn(a))
		for _, r := range c.recs {
			planned.AddPlanned(r)
		}
		out = append(out, queryStore{added, c.bodies}, queryStore{planned, c.bodies})
	}
	return g, out
}

// scanCandidates is the reference of Candidates: a linear scan of All()
// in acceptance order with a dedup map over the receipts that pass every
// filter.
func scanCandidates(st *ReceiptStore, fil Filter) []Receipt {
	var out []Receipt
	seen := map[graph.PathID]bool{}
	for i, r := range st.All() {
		if fil.Origins != 0 && !fil.Origins.Contains(r.Origin) {
			continue
		}
		if fil.Body != AnyBody && st.BodyID(i) != fil.Body {
			continue
		}
		if fil.Exclude != 0 && !st.Path(r).Excludes(fil.Exclude) {
			continue
		}
		if !seen[r.PathID] {
			seen[r.PathID] = true
			out = append(out, r)
		}
	}
	return out
}

// bruteDisjoint reports whether k of the candidates are pairwise disjoint
// under mode, trying every k-subset on materialized paths.
func bruteDisjoint(st *ReceiptStore, cands []Receipt, k int, mode DisjointMode) bool {
	ok := func(p, q graph.Path) bool {
		if mode == InternallyDisjoint {
			return graph.InternallyDisjoint(p, q)
		}
		return graph.DisjointExceptLast(p, q)
	}
	var rec func(start int, chosen []graph.Path) bool
	rec = func(start int, chosen []graph.Path) bool {
		if len(chosen) == k {
			return true
		}
		for i := start; i < len(cands); i++ {
			p := st.Path(cands[i])
			fits := true
			for _, c := range chosen {
				if !ok(c, p) {
					fits = false
					break
				}
			}
			if fits && rec(i+1, append(chosen, p)) {
				return true
			}
		}
		return false
	}
	return rec(0, nil)
}

// randomSet returns the empty set or a random subset of the n nodes,
// itself possibly empty. A filter reads either as "no filter".
func randomSet(rng *rand.Rand, n int) graph.Set {
	if rng.Intn(3) == 0 {
		return 0
	}
	s := graph.NewSet()
	for u := range n {
		if rng.Intn(3) == 0 {
			s.Add(graph.NodeID(u))
		}
	}
	return s
}

// TestQueryLayerMatchesReference requires, on random stores, that
// QueryScratch.Candidates return exactly the reference scan's receipts in
// the same order, and that ReceivedOnDisjointPaths agree with a
// brute-force subset search for k ≤ 3 in both disjointness modes. It also
// requires the random stores to reach the paths the optimizations skip: a
// candidate list with a length inversion (the sort) and a body-filtered
// candidate that is not its path's first receipt (the chain walk).
func TestQueryLayerMatchesReference(t *testing.T) {
	var inversions, chainSkips, searched int
	for seed := int64(1); seed <= 40; seed++ {
		g, stores := randomQueryStores(t, seed)
		rng := rand.New(rand.NewSource(seed * 7919))
		var sc QueryScratch
		for _, qs := range stores {
			st := qs.st
			for range 30 {
				fil := Filter{Origins: randomSet(rng, g.N()), Exclude: randomSet(rng, g.N())}
				if rng.Intn(4) != 0 {
					fil.Body = st.Ident().BodyKeyID(qs.bodies[rng.Intn(len(qs.bodies))])
				}
				got := sc.Candidates(st, fil)
				want := scanCandidates(st, fil)
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d candidates, reference %d (filter %+v)", seed, len(got), len(want), fil)
				}
				for i := range got {
					if got[i].PathID != want[i].PathID || got[i].Origin != want[i].Origin || got[i].Body.Key() != want[i].Body.Key() {
						t.Fatalf("seed %d candidate %d: %v %s, reference %v %s", seed, i, st.Path(got[i]), got[i].Body.Key(), st.Path(want[i]), want[i].Body.Key())
					}
					if i > 0 && st.Arena().PathLen(got[i].PathID) < st.Arena().PathLen(got[i-1].PathID) {
						inversions++
					}
					if h := st.pathHead(got[i].PathID); st.All()[h-1].Body.Key() != got[i].Body.Key() {
						chainSkips++
					}
				}
				if len(want) > 80 {
					continue
				}
				searched++
				for k := 1; k <= 3; k++ {
					for _, mode := range []DisjointMode{InternallyDisjoint, DisjointExceptLast} {
						got := sc.ReceivedOnDisjointPaths(st, fil, k, mode)
						if want := bruteDisjoint(st, want, k, mode); got != want {
							t.Fatalf("seed %d k=%d mode %d: got %v, brute force %v (filter %+v)", seed, k, mode, got, want, fil)
						}
						if got != ReceivedOnDisjointPaths(st, fil, k, mode) {
							t.Fatalf("seed %d k=%d mode %d: scratch and package-level answers differ", seed, k, mode)
						}
					}
				}
			}
		}
	}
	if inversions == 0 || chainSkips == 0 || searched < 500 {
		t.Fatalf("coverage: %d length inversions, %d chain skips, %d brute-force queries", inversions, chainSkips, searched)
	}
}
