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

// overlayDriver floods one value per phase on a plan's arena: each round
// from the overlay while the faulty sends fit it, by the dynamic rules
// otherwise (always, with no overlay). It records every transmission key
// and, at each phase end, its receipts.
type overlayDriver struct {
	f      *Flooder
	ov     *Overlay
	value  sim.Value
	rounds int
	trace  []string
}

func (d *overlayDriver) ID() graph.NodeID { return d.f.me }

func (d *overlayDriver) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	r, phase := round%d.rounds, round/d.rounds
	var out []sim.Outgoing
	switch {
	case r == 0:
		if phase > 0 {
			d.f.Recycle()
		}
		if d.ov != nil {
			d.ov.Open(phase)
			out = d.f.StartOverlay(d.ov, d.value)
		} else {
			out = d.f.Start(CanonValueBody(d.value))
		}
	case d.ov != nil && d.ov.Fits(d.f.me, r, inbox):
		out = d.f.DeliverOverlay(d.ov, r)
	default:
		out = d.f.Deliver(inbox)
		if r == 1 {
			out = d.f.AppendMissing(out, func(graph.NodeID) Body { return CanonValueBody(sim.DefaultValue) })
		}
	}
	for _, o := range out {
		d.trace = append(d.trace, fmt.Sprintf("r%d %s", round, o.Payload.Key()))
	}
	if r == d.rounds-1 {
		for _, rc := range d.f.Receipts() {
			d.trace = append(d.trace, fmt.Sprintf("p%d %d %d %s", phase, rc.Origin, rc.PathID, rc.Body.Key()))
		}
	}
	return out
}

// flipRelay is a value-faulty node on a plan's arena: it initiates at
// every phase start and relays every message it can extend with the value
// flipped — sends that fit the overlay. With offTime set it also sends,
// in round 1 of each phase, a three-node path due in round 2, which does
// not, and in round 3 its root again, which every receiver must discard by
// the rule-(ii) key it took while the phase fitted.
type flipRelay struct {
	p       *Plan
	me      graph.NodeID
	rounds  int
	offTime bool
}

func (b *flipRelay) ID() graph.NodeID { return b.me }

func (b *flipRelay) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	a := b.p.Arena()
	var out []sim.Outgoing
	r := round % b.rounds
	if r == 0 {
		out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: b.p.Box(ValueBody{Value: sim.One}, a.Root(b.me))})
	}
	if b.offTime && r == 1 {
		g := b.p.Graph()
		nb := g.AdjList(b.me)[0]
		for _, x := range g.AdjList(nb) {
			if x != b.me {
				ext := a.Extend(a.Extend(a.Root(x), nb), b.me)
				out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: b.p.Box(ValueBody{Value: sim.Zero}, ext)})
				break
			}
		}
	}
	if b.offTime && r == 3 {
		out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: b.p.Box(ValueBody{Value: sim.Zero}, a.Root(b.me))})
	}
	for _, d := range inbox {
		m, ok := d.Payload.(Msg)
		if !ok || r == 0 {
			continue
		}
		full := m.ProvenanceIn(a, d.From)
		if full == graph.NoPath {
			continue
		}
		if ext := a.Extend(full, b.me); ext != graph.NoPath {
			v := m.Body.(ValueBody).Value
			out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: b.p.Box(ValueBody{Value: 1 - v}, ext)})
		}
	}
	return out
}

// TestOverlayMatchesDynamicFlood runs two flooding phases with one
// value-faulty node twice — honest flooders on the overlay, and on the
// dynamic rules — and requires every transmission and every phase's
// receipts to match. A faulty node whose sends fit keeps every round on
// the overlay; an off-time send moves the rest of its phase to the
// dynamic rules, and the next phase starts on the overlay again. It also
// pins the order fact the fit rules lean on: every benign schedule lists
// its paths in ascending PathID.
func TestOverlayMatchesDynamicFlood(t *testing.T) {
	g := gen.Figure1b()
	n := g.N()
	p := CompilePlan(g)
	for v := range p.sched {
		pids := p.sched[v].pids
		for i := 1; i < len(pids); i++ {
			if pids[i] <= pids[i-1] {
				t.Fatalf("node %d: schedule entry %d has PathID %d after %d", v, i, pids[i], pids[i-1])
			}
		}
	}
	const faulty = graph.NodeID(3)
	rounds := Rounds(n)
	for _, offTime := range []bool{false, true} {
		run := func(overlay bool) ([]string, *Overlay) {
			var ov *Overlay
			if overlay {
				ov = NewOverlay(p, graph.NewSet(faulty), 0)
			}
			nodes := make([]sim.Node, n)
			drivers := make([]*overlayDriver, 0, n)
			for v := range nodes {
				if graph.NodeID(v) == faulty {
					nodes[v] = &flipRelay{p: p, me: faulty, rounds: rounds, offTime: offTime}
					continue
				}
				d := &overlayDriver{f: NewOnPlan(p, graph.NodeID(v), NewIdent()), ov: ov, value: sim.Value(v % 2), rounds: rounds}
				drivers = append(drivers, d)
				nodes[v] = d
			}
			eng, err := sim.NewEngine(sim.Config{Topology: sim.GraphTopology{G: g}}, nodes)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			eng.Run(2 * rounds)
			var trace []string
			for _, d := range drivers {
				trace = append(trace, fmt.Sprintf("node %d", d.f.me))
				trace = append(trace, d.trace...)
			}
			return trace, ov
		}
		got, ov := run(true)
		want, _ := run(false)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("offTime=%v: overlay and dynamic floods diverge:\noverlay: %v\ndynamic: %v", offTime, got, want)
		}
		if wantMisfits := map[bool]int{false: 0, true: 2}[offTime]; ov.Misfits() != wantMisfits {
			t.Errorf("offTime=%v: %d phases left the overlay, want %d", offTime, ov.Misfits(), wantMisfits)
		}
	}
}
