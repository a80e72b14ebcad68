package flood

import (
	"fmt"
	"testing"

	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// maskedDynamicRef is dynamicRef under a crash mask: silent nodes never
// start, deliver, or forward, and every honest node applies the round-1
// default-message rule (synthesized acceptances after the round's
// delivered ones, like the dynamic step). Private per-node arenas and
// idents, so the reference shares no state with the compiler.
func maskedDynamicRef(g *graph.Graph, body Body, silent graph.Set) (recRounds [][]int, flooders []*Flooder, outKeys [][][]string) {
	n := g.N()
	flooders = make([]*Flooder, n)
	recRounds = make([][]int, n)
	outKeys = make([][][]string, n)
	for u := 0; u < n; u++ {
		if !silent.Contains(graph.NodeID(u)) {
			flooders[u] = New(g, graph.NodeID(u))
		}
		outKeys[u] = make([][]string, Rounds(n))
	}
	record := func(v, r int, outs []sim.Outgoing) {
		for len(recRounds[v]) < flooders[v].Store().Len() {
			recRounds[v] = append(recRounds[v], r)
		}
		for _, o := range outs {
			outKeys[v][r] = append(outKeys[v][r], o.Payload.Key())
		}
	}
	defaultBody := func(graph.NodeID) Body { return CanonValueBody(sim.DefaultValue) }
	outs := make([][]sim.Outgoing, n)
	for u := 0; u < n; u++ {
		if flooders[u] == nil {
			continue
		}
		outs[u] = flooders[u].Start(body)
		record(u, 0, outs[u])
	}
	inboxes := make([][]sim.Delivery, n)
	for r := 1; r < Rounds(n); r++ {
		for v := range inboxes {
			inboxes[v] = inboxes[v][:0]
		}
		for u := 0; u < n; u++ {
			for _, out := range outs[u] {
				for _, w := range g.Neighbors(graph.NodeID(u)) {
					inboxes[w] = append(inboxes[w], sim.Delivery{From: graph.NodeID(u), Payload: out.Payload})
				}
			}
		}
		for v := 0; v < n; v++ {
			if flooders[v] == nil {
				outs[v] = nil
				continue
			}
			fwd := flooders[v].Deliver(inboxes[v])
			if r == 1 {
				fwd = flooders[v].AppendMissing(fwd, defaultBody)
			}
			outs[v] = append([]sim.Outgoing(nil), fwd...)
			record(v, r, outs[v])
		}
	}
	return recRounds, flooders, outKeys
}

// checkMaskedPlanParity compares masked-plan replay against the
// private-state dynamic crash reference on g.
func checkMaskedPlanParity(t *testing.T, g *graph.Graph, silent graph.Set) {
	t.Helper()
	n := g.N()
	body := ValueBody{Value: sim.DefaultValue}
	plan := CompileMaskedPlan(g, silent)
	recRounds, flooders, outKeys := maskedDynamicRef(g, body, silent)

	bodies := make([]Body, n)
	for i := range bodies {
		bodies[i] = CanonValueBody(sim.DefaultValue)
	}
	for v := 0; v < n; v++ {
		if silent.Contains(graph.NodeID(v)) {
			if plan.NodeReceipts(graph.NodeID(v)) != 0 {
				t.Fatalf("silent node %d has %d scheduled receipts", v, plan.NodeReceipts(graph.NodeID(v)))
			}
			continue
		}
		store := plan.PlannedStore(graph.NodeID(v), nil)
		var replayRounds []int
		replayOut := make([][]string, plan.Rounds())
		for r := 0; r < plan.Rounds(); r++ {
			out := plan.ReplayRound(graph.NodeID(v), r, bodies, store, nil)
			for len(replayRounds) < store.Len() {
				replayRounds = append(replayRounds, r)
			}
			for _, o := range out {
				replayOut[r] = append(replayOut[r], o.Payload.Key())
			}
		}
		dynStore := flooders[v].Store()
		if store.Len() != dynStore.Len() {
			t.Fatalf("node %d: %d replayed receipts, %d dynamic", v, store.Len(), dynStore.Len())
		}
		for i, rr := range store.All() {
			dr := dynStore.All()[i]
			if rr.Origin != dr.Origin {
				t.Fatalf("node %d receipt %d: origin %d != %d", v, i, rr.Origin, dr.Origin)
			}
			rp, dp := store.Path(rr), dynStore.Path(dr)
			if fmt.Sprint(rp) != fmt.Sprint(dp) {
				t.Fatalf("node %d receipt %d: path %v != %v", v, i, rp, dp)
			}
			if rr.Body.Key() != dr.Body.Key() {
				t.Fatalf("node %d receipt %d: body %q != %q", v, i, rr.Body.Key(), dr.Body.Key())
			}
			if replayRounds[i] != recRounds[v][i] {
				t.Fatalf("node %d receipt %d: accepted in round %d, dynamic in %d", v, i, replayRounds[i], recRounds[v][i])
			}
		}
		for r := 0; r < plan.Rounds(); r++ {
			if fmt.Sprint(replayOut[r]) != fmt.Sprint(outKeys[v][r]) {
				t.Fatalf("node %d round %d: outbox\nreplay:  %v\ndynamic: %v", v, r, replayOut[r], outKeys[v][r])
			}
		}
	}
}

// TestMaskedPlanMatchesDynamicFlood is the masked analogue of the plan
// parity property: under every crash mask, replaying the masked plan
// reproduces the private-state dynamic crash flood element for element.
func TestMaskedPlanMatchesDynamicFlood(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		silent []graph.NodeID
	}{
		{"figure1a-crash0", gen.Figure1a(), []graph.NodeID{0}},
		{"figure1b-crash2", gen.Figure1b(), []graph.NodeID{2}},
		{"figure1b-crash2,6", gen.Figure1b(), []graph.NodeID{2, 6}},
		{"petersen-crash4,7", gen.Petersen(), []graph.NodeID{4, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkMaskedPlanParity(t, tc.g, graph.NewSet(tc.silent...))
		})
	}
	for seed := int64(1); seed <= 4; seed++ {
		n := 6 + int(seed)%4
		g, err := gen.RandomWithMinConnectivity(n, 3, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		silent := graph.NewSet(graph.NodeID(int(seed) % n))
		t.Run(fmt.Sprintf("random-seed%d-n%d", seed, n), func(t *testing.T) {
			checkMaskedPlanParity(t, g, silent)
		})
	}
}

// TestDeltaPlanTaintPartition pins the delta compiler's partition: a base
// schedule entry survives into the delta exactly when its provenance path
// avoids the faulty set, and round offsets stay consistent.
func TestDeltaPlanTaintPartition(t *testing.T) {
	g := gen.Figure1b()
	base := CompilePlan(g)
	arena := base.Arena()
	for _, faulty := range []graph.Set{
		graph.NewSet(3),
		graph.NewSet(2, 6),
	} {
		dp := CompileDelta(base, faulty)
		onPath := func(pid graph.PathID) bool {
			for _, u := range arena.Path(pid) {
				if faulty.Contains(u) {
					return true
				}
			}
			// Path excludes the accepting node itself; the receipt path id
			// covers the full provenance, so check its last node too.
			return faulty.Contains(arena.Last(pid))
		}
		for v := 0; v < g.N(); v++ {
			bs := base.sched[v]
			ds := dp.sched[v]
			want := 0
			k := 0
			for r := 1; r+1 < len(bs.roundOff); r++ {
				for i := bs.roundOff[r]; i < bs.roundOff[r+1]; i++ {
					if onPath(bs.pids[i]) {
						continue
					}
					want++
					if k >= len(ds.idx) || ds.idx[k] != i {
						t.Fatalf("faulty %v node %d: delta entry %d = base index %v, want %d", faulty, v, k, ds.idx, i)
					}
					k++
				}
				if int(ds.roundOff[r+1]) != k {
					t.Fatalf("faulty %v node %d: roundOff[%d]=%d, want %d", faulty, v, r+1, ds.roundOff[r+1], k)
				}
			}
			if len(ds.idx) != want {
				t.Fatalf("faulty %v node %d: %d delta entries, want %d untainted", faulty, v, len(ds.idx), want)
			}
			// Round 0 self-receipts are never on the delta fast path.
			if ds.roundOff[0] != 0 || ds.roundOff[1] != 0 {
				t.Fatalf("faulty %v node %d: round-0 offsets %d,%d nonzero", faulty, v, ds.roundOff[0], ds.roundOff[1])
			}
		}
	}
}
