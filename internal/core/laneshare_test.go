package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// laneStore fills a store for receiver me with one receipt per simple path
// of at most maxLen nodes ending at me, in round order. Every origin
// carries several distinct VectorBody arrays of the given lane count:
// with fresh set, every receipt gets its own array (one group per
// receipt); otherwise each draws from a pool of three arrays per origin,
// one of them a shorter view of another's backing array. A few receipts
// carry a non-vector body no lane can match. Lanes marked in unanimous
// carry want[l] in every array; the others carry want[l] with probability
// 4/5.
func laneStore(rng *rand.Rand, g *graph.Graph, me graph.NodeID, arena *graph.PathArena, lanes, maxLen int, fresh bool, want []sim.Value, unanimous []bool) *flood.ReceiptStore {
	mkVals := func() []sim.Value {
		vals := make([]sim.Value, lanes)
		for l := range vals {
			vals[l] = want[l]
			if !unanimous[l] && rng.Intn(5) == 0 {
				vals[l] = 1 - want[l]
			}
		}
		return vals
	}
	pools := make([][]VectorBody, g.N())
	for u := range pools {
		a, b := mkVals(), mkVals()
		pools[u] = []VectorBody{{Values: a}, {Values: b}, {Values: b[:lanes/2]}}
	}
	body := func(u graph.NodeID) flood.Body {
		switch {
		case rng.Intn(25) == 0:
			return flood.ValueBody{Value: sim.One}
		case fresh:
			return VectorBody{Values: mkVals()}
		default:
			return pools[u][rng.Intn(3)]
		}
	}
	st := flood.NewReceiptStore(arena, nil)
	level := []graph.Path{{me}}
	for len(level) > 0 && len(level[0]) <= maxLen {
		var next []graph.Path
		for _, rev := range level {
			p := slices.Clone(rev)
			slices.Reverse(p)
			st.Add(flood.Receipt{Origin: p[0], PathID: arena.Intern(p), Body: body(p[0])})
			for _, u := range g.AdjList(rev[len(rev)-1]) {
				if !rev.Contains(u) {
					next = append(next, append(slices.Clone(rev), u))
				}
			}
		}
		level = next
	}
	return st
}

// referenceLaneEndPhase is the per-lane phase end the lane sharing
// replaces: every lane gathers its own match lists and runs its own
// searches. It returns the lanes' γ, early-decision flags and early
// values without touching nd.
func referenceLaneEndPhase(nd *VectorPhaseNode) (gammas []sim.Value, decided []bool, values []sim.Value) {
	spec := nd.phases[nd.phaseIdx]
	excl := spec.F.Union(spec.T)
	st := nd.store
	gammas = slices.Clone(nd.gammas)
	decided = slices.Clone(nd.earlyDecided)
	values = slices.Clone(nd.earlyValues)
	laneValue := func(b flood.Body, l int) (sim.Value, bool) {
		vb, ok := b.(VectorBody)
		if !ok || l >= len(vb.Values) {
			return 0, false
		}
		return vb.Values[l], true
	}
	match := func(cands []flood.Receipt, l int, want sim.Value, admit graph.Set) []flood.Receipt {
		var out []flood.Receipt
		for _, r := range cands {
			if admit != 0 && !admit.Contains(r.Origin) {
				continue
			}
			if v, ok := laneValue(r.Body, l); ok && v == want {
				out = append(out, r)
			}
		}
		return out
	}
	for l := range gammas {
		if !nd.earlyOK || decided[l] {
			continue
		}
		all := true
		for _, u := range nd.g.Nodes() {
			if u == nd.me {
				continue
			}
			cands := flood.Candidates(st, flood.Filter{Origins: graph.NewSet(u)})
			if flood.SelectDisjoint(nd.arena, match(cands, l, nd.phaseStartGamma[l], 0), nd.f+1, flood.InternallyDisjoint) == nil {
				all = false
				break
			}
		}
		if all {
			decided[l] = true
			values[l] = nd.phaseStartGamma[l]
		}
	}
	cands := flood.Candidates(st, flood.Filter{Exclude: excl})
	for l := range gammas {
		zv, nv := graph.NewSet(), graph.NewSet()
		for _, u := range nd.g.Nodes() {
			if spec.T.Contains(u) {
				continue
			}
			zero := u == nd.me && nd.gammas[l] == sim.Zero
			if u != nd.me {
				if pid := nd.chosenPath(u, excl); pid != graph.NoPath {
					for r := range st.AtPath(pid) {
						if _, ok := r.Body.(VectorBody); ok {
							v, ok := laneValue(r.Body, l)
							zero = ok && v == sim.Zero
							break
						}
					}
				}
			}
			if zero {
				zv.Add(u)
			} else {
				nv.Add(u)
			}
		}
		av, bv := selectAvBv(zv, nv, spec.F, nd.f, nd.f-spec.T.Len())
		if !bv.Contains(nd.me) || av == 0 {
			continue
		}
		for _, delta := range []sim.Value{sim.Zero, sim.One} {
			if flood.SelectDisjoint(nd.arena, match(cands, l, delta, av), nd.f+1, flood.DisjointExceptLast) != nil {
				gammas[l] = delta
				break
			}
		}
	}
	return gammas, decided, values
}

// valueLaneStore is the one-lane row's store: st with its body kinds
// swapped, so that the one-lane node reads value bodies where the
// per-lane reference reads one-lane VectorBodies. Every one-lane VectorBody
// becomes the value body of its value, every value body a one-lane
// VectorBody no one-lane query may match; anything else stays.
func valueLaneStore(st *flood.ReceiptStore, arena *graph.PathArena) *flood.ReceiptStore {
	out := flood.NewReceiptStore(arena, flood.NewIdent())
	for _, r := range st.All() {
		switch b := r.Body.(type) {
		case VectorBody:
			if len(b.Values) == 1 {
				r.Body = flood.CanonValueBody(b.Values[0])
			}
		case flood.ValueBody:
			r.Body = VectorBody{Values: []sim.Value{b.Value}}
		}
		out.Add(r)
	}
	return out
}

// TestLaneSharingMatchesPerLaneReference runs VectorPhaseNode phase ends
// over stores whose origins carry several distinct VectorBody arrays —
// and, with a fresh array per receipt, more than 64 groups — and requires
// every lane's γ, early-decision flag and early value to equal the
// per-lane reference's. The random states must reach both outcomes of
// both checks. The one-lane row runs the same states on a node that
// floods and reads value bodies (laneShare's filtered-query strategy): its
// store is the reference's with the body kinds swapped (valueLaneStore).
func TestLaneSharingMatchesPerLaneReference(t *testing.T) {
	for _, lanes := range []int{70, 1} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) { laneSharingRow(t, lanes) })
	}
}

func laneSharingRow(t *testing.T, lanes int) {
	g := gen.Figure1b()
	topo := graph.NewAnalysis(g)
	var adopted, kept, early, notEarly, wide int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		me := graph.NodeID(rng.Intn(g.N()))
		arena := graph.NewPathArena(g)
		inputs := make([]sim.Value, lanes)
		for l := range inputs {
			inputs[l] = sim.Value(rng.Intn(2))
		}
		var nd *VectorPhaseNode
		if seed%3 == 0 {
			nd = NewVectorHybridNode(topo, 2, 1, me, inputs, arena)
		} else {
			nd = NewVectorAlgo1Node(topo, 2, me, inputs, arena)
		}
		nd.EnableEarlyDecision()
		for phase := range 4 {
			nd.phaseIdx = rng.Intn(len(nd.phases))
			unanimous := make([]bool, lanes)
			for l := range lanes {
				nd.phaseStartGamma[l] = nd.gammas[l]
				unanimous[l] = rng.Intn(3) == 0
				if rng.Intn(6) == 0 {
					nd.earlyDecided[l] = true
					nd.earlyValues[l] = nd.gammas[l]
				}
			}
			fresh := phase%2 == 1
			nd.store = laneStore(rng, g, me, arena, lanes, 5, fresh, nd.phaseStartGamma, unanimous)
			wantG, wantD, wantV := referenceLaneEndPhase(nd)
			if lanes == 1 {
				nd.store = valueLaneStore(nd.store, arena)
			}
			before := slices.Clone(nd.gammas)
			pending := slices.Clone(nd.earlyDecided)
			nd.endPhase()
			for l := range lanes {
				if nd.gammas[l] != wantG[l] || nd.earlyDecided[l] != wantD[l] || nd.earlyValues[l] != wantV[l] {
					t.Fatalf("seed %d phase %d lane %d: γ %v decided %v (%v), reference γ %v decided %v (%v)",
						seed, phase, l, nd.gammas[l], nd.earlyDecided[l], nd.earlyValues[l], wantG[l], wantD[l], wantV[l])
				}
				if nd.gammas[l] != before[l] {
					adopted++
				} else {
					kept++
				}
				if !pending[l] {
					if nd.earlyDecided[l] {
						early++
					} else {
						notEarly++
					}
				}
			}
			if fresh && nd.lanes.words > 1 {
				wide++
			}
		}
	}
	if adopted == 0 || kept == 0 || early == 0 || notEarly == 0 || (lanes > 1 && wide == 0) {
		t.Fatalf("coverage: %d γ changes, %d kept, %d early decisions, %d not, %d phase ends over 64 groups", adopted, kept, early, notEarly, wide)
	}
}
