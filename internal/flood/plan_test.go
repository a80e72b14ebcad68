package flood

import (
	"fmt"
	"sync"
	"testing"

	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// The plan-parity property: a compiled plan's replayed receipts and
// outboxes are element-wise identical — same origins, same materialized
// paths, same bodies, same acceptance and forward order, round by round —
// to a reference dynamic flood run with fully private per-node state
// (independent arenas and idents, exactly like a real session's nodes).
// The reference loop below reimplements the engine's canonical delivery
// order independently of the compiler, so the two sides share no
// shortcuts.

// dynamicRef runs one fault-free flooding session with private per-node
// flooders and returns, per node, the receipts in acceptance order with
// the round each was accepted in, plus the per-round outbox payload keys.
func dynamicRef(g *graph.Graph, body Body) (recRounds [][]int, flooders []*Flooder, outKeys [][][]string) {
	n := g.N()
	flooders = make([]*Flooder, n)
	recRounds = make([][]int, n)
	outKeys = make([][][]string, n)
	for u := 0; u < n; u++ {
		flooders[u] = New(g, graph.NodeID(u)) // private arena + ident
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
	outs := make([][]sim.Outgoing, n)
	for u := 0; u < n; u++ {
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
			// Copy the reused Deliver buffer: the reference keeps outboxes
			// across the inbox-building step like the engine does.
			fwd := flooders[v].Deliver(inboxes[v])
			outs[v] = append([]sim.Outgoing(nil), fwd...)
			record(v, r, outs[v])
		}
	}
	return recRounds, flooders, outKeys
}

// checkPlanParity compares plan replay against the dynamic reference on g.
func checkPlanParity(t *testing.T, g *graph.Graph) {
	t.Helper()
	n := g.N()
	body := ValueBody{Value: sim.DefaultValue}
	plan := CompilePlan(g)
	recRounds, flooders, outKeys := dynamicRef(g, body)

	bodies := make([]Body, n)
	for i := range bodies {
		bodies[i] = body
	}
	for v := 0; v < n; v++ {
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
		if store.Len() != plan.NodeReceipts(graph.NodeID(v)) {
			t.Fatalf("node %d: NodeReceipts %d != installed %d", v, plan.NodeReceipts(graph.NodeID(v)), store.Len())
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

func TestPlanMatchesDynamicFloodFixedGraphs(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"figure1a", gen.Figure1a()},
		{"figure1b", gen.Figure1b()},
		{"petersen", gen.Petersen()},
	} {
		t.Run(tc.name, func(t *testing.T) { checkPlanParity(t, tc.g) })
	}
}

// TestPlanMatchesDynamicFloodRandom is the property over seeded random
// graphs: whatever the topology, replay reproduces the dynamic flood
// element for element.
func TestPlanMatchesDynamicFloodRandom(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		n := 6 + int(seed)%4
		g, err := gen.RandomWithMinConnectivity(n, 3, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Run(fmt.Sprintf("seed%d-n%d", seed, n), func(t *testing.T) { checkPlanParity(t, g) })
	}
}

// TestPlanFirstBoxRace races goroutines through the first Box and
// ReplayRound calls of fresh plans, benign and masked: the value-message
// table is built once, on first use, and every goroutine must read the
// same messages (run under -race, this is the check that the lazy build is
// published safely).
func TestPlanFirstBoxRace(t *testing.T) {
	g := gen.Figure1a()
	bodies := make([]Body, g.N())
	for o := range bodies {
		bodies[o] = CanonValueBody(sim.Value(o % 2))
	}
	for _, p := range []*Plan{CompilePlan(g), CompileMaskedPlan(g, graph.NewSet(2))} {
		keys := make([][]string, 2*g.N())
		var wg sync.WaitGroup
		for w := range keys {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				v := graph.NodeID(w / 2)
				if p.Mask().Contains(v) {
					return
				}
				store := p.PlannedStore(v, nil)
				for r := 0; r < p.Rounds(); r++ {
					if w%2 == 0 {
						for _, o := range p.ReplayRound(v, r, bodies, store, nil) {
							keys[w] = append(keys[w], o.Payload.Key())
						}
						continue
					}
					start := store.Len()
					p.ReplayRoundPhantom(v, r, bodies, store, nil)
					for _, rec := range store.All()[start:] {
						keys[w] = append(keys[w], p.Box(rec.Body, rec.PathID).Key())
					}
				}
			}(w)
		}
		wg.Wait()
		for w := 0; w < len(keys); w += 2 {
			if fmt.Sprint(keys[w]) != fmt.Sprint(keys[w+1]) {
				t.Fatalf("mask %v node %d: ReplayRound sent %v, Box gives %v", p.Mask(), w/2, keys[w], keys[w+1])
			}
		}
	}
}

// fanInDriver is floodDriver with every node initiating, recording the
// largest inbox the engine hands it.
type fanInDriver struct {
	floodDriver
	maxInbox int
}

func (d *fanInDriver) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	d.maxInbox = max(d.maxInbox, len(inbox))
	return d.floodDriver.Step(round, inbox)
}

// engineFlood runs a fault-free flooding session of g on a sim.Engine,
// every node initiating; reserve pre-sizes each inbox to the plan's
// fan-in first. It returns the drivers.
func engineFlood(t *testing.T, g *graph.Graph, plan *Plan, reserve bool) []*fanInDriver {
	t.Helper()
	drivers := make([]*fanInDriver, g.N())
	nodes := make([]sim.Node, g.N())
	for u := range nodes {
		drivers[u] = &fanInDriver{floodDriver: floodDriver{f: New(g, graph.NodeID(u)), initiate: true, value: sim.Value(u % 2)}}
		nodes[u] = drivers[u]
	}
	eng, err := sim.NewEngine(sim.Config{Topology: sim.GraphTopology{G: g}}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if reserve {
		for _, v := range g.Nodes() {
			eng.ReserveInbox(v, plan.MaxRoundFanIn(v))
		}
	}
	eng.Run(plan.Rounds())
	return drivers
}

// TestMaxRoundFanInMatchesEngineFlood pins MaxRoundFanIn to what the engine
// actually delivers: in a fault-free dynamic flood the largest inbox each
// node is handed is exactly the plan's fan-in, and a session whose inboxes
// were reserved to that size accepts the same receipts in the same order.
func TestMaxRoundFanInMatchesEngineFlood(t *testing.T) {
	graphs := map[string]*graph.Graph{"figure1a": gen.Figure1a(), "figure1b": gen.Figure1b(), "petersen": gen.Petersen()}
	for seed := int64(1); seed <= 4; seed++ {
		g, err := gen.RandomWithMinConnectivity(6+int(seed)%3, 3, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		graphs[fmt.Sprintf("random%d", seed)] = g
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			plan := CompilePlan(g)
			grown := engineFlood(t, g, plan, false)
			reserved := engineFlood(t, g, plan, true)
			for v := range grown {
				if got, want := grown[v].maxInbox, plan.MaxRoundFanIn(graph.NodeID(v)); got != want {
					t.Fatalf("node %d: largest inbox %d, MaxRoundFanIn %d", v, got, want)
				}
				a, b := grown[v].f.Store(), reserved[v].f.Store()
				if a.Len() != b.Len() {
					t.Fatalf("node %d: %d receipts grown, %d reserved", v, a.Len(), b.Len())
				}
				for i, r := range a.All() {
					s := b.All()[i]
					if fmt.Sprint(a.Path(r)) != fmt.Sprint(b.Path(s)) || r.Body.Key() != s.Body.Key() {
						t.Fatalf("node %d receipt %d: grown %v %s, reserved %v %s", v, i, a.Path(r), r.Body.Key(), b.Path(s), s.Body.Key())
					}
				}
			}
		})
	}
}
