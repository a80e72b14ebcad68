package adversary

import (
	"fmt"
	"math/rand"
	"testing"

	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// This file keeps the slice-building relay the strategies used before they
// walked an arena — build Π·u with Path.Append, validate it with ValidIn and
// IsSimple, box a fresh Msg per emission — as the reference their Step is
// held to: the same transmissions, message for message, and the same random
// stream, draw for draw.

// refRelay is the reference relay check: the provenance Π·from node me
// would forward, nil when rule (i) or (iii) forbids it.
func refRelay(g *graph.Graph, me, from graph.NodeID, m flood.Msg) graph.Path {
	full := m.Pi.Append(from)
	if !full.ValidIn(g) || !full.IsSimple() || full.Contains(me) {
		return nil
	}
	return full
}

func refTamperStep(n *TamperNode, round int, inbox []sim.Delivery) []sim.Outgoing {
	var out []sim.Outgoing
	if n.PhaseLen > 0 && round%n.PhaseLen == 0 {
		out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: flood.Msg{Body: flood.ValueBody{Value: sim.Value(n.rng.Intn(2))}}})
	}
	for _, d := range inbox {
		m, ok := d.Payload.(flood.Msg)
		if !ok {
			continue
		}
		if n.rng.Float64() < n.DropProb {
			continue
		}
		full := refRelay(n.G, n.Me, d.From, m)
		if full == nil {
			continue
		}
		out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: flood.Msg{Body: n.corrupt(m.Body), Pi: full}})
	}
	return out
}

func refEquivocatorStep(n *EquivocatorNode, round int, inbox []sim.Delivery) []sim.Outgoing {
	var out []sim.Outgoing
	if n.PhaseLen > 0 && round%n.PhaseLen == 0 {
		nbrs := n.G.AdjList(n.Me)
		for i, nb := range nbrs {
			v := sim.Zero
			if i >= len(nbrs)/2 {
				v = sim.One
			}
			out = append(out, sim.Outgoing{To: nb, Payload: flood.Msg{Body: flood.ValueBody{Value: v}}})
		}
		return out
	}
	for _, d := range inbox {
		m, ok := d.Payload.(flood.Msg)
		if !ok {
			continue
		}
		if full := refRelay(n.G, n.Me, d.From, m); full != nil {
			out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: flood.Msg{Body: m.Body, Pi: full}})
		}
	}
	return out
}

func refAdaptiveStep(n *AdaptiveNode, round int, inbox []sim.Delivery) []sim.Outgoing {
	var out []sim.Outgoing
	if n.PhaseLen > 0 && round%n.PhaseLen == 0 {
		n.adapt()
		out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: flood.Msg{Body: flood.ValueBody{Value: n.counterValue()}}})
	}
	for _, d := range inbox {
		m, ok := d.Payload.(flood.Msg)
		if !ok {
			continue
		}
		full := refRelay(n.G, n.Me, d.From, m)
		if full == nil {
			continue
		}
		n.observe(full[0], m.Body)
		body := m.Body
		if full[0] == n.victim {
			if vb, ok := body.(flood.ValueBody); ok {
				body = flood.ValueBody{Value: 1 - vb.Value}
			}
		}
		out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: flood.Msg{Body: body, Pi: full}})
	}
	return out
}

func refForgerStep(n *ForgerNode, round int) []sim.Outgoing {
	var out []sim.Outgoing
	if n.PhaseLen > 0 && round%n.PhaseLen == 0 {
		for i := 0; i < 2; i++ {
			out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: flood.Msg{Body: flood.ValueBody{Value: sim.Value(n.rng.Intn(2))}}})
		}
	}
	for i := 0; i < n.PerRound; i++ {
		// The reference walk: backwards from me along unvisited vertices,
		// emitted reversed and without me.
		length := 1 + n.rng.Intn(n.G.N()-1)
		used := map[graph.NodeID]bool{n.Me: true}
		walk := graph.Path{n.Me}
		for cur := n.Me; len(walk) <= length; {
			nbrs := n.G.Neighbors(cur)
			n.rng.Shuffle(len(nbrs), func(i, j int) { nbrs[i], nbrs[j] = nbrs[j], nbrs[i] })
			next := graph.NodeID(-1)
			for _, nb := range nbrs {
				if !used[nb] {
					next = nb
					break
				}
			}
			if next < 0 {
				break
			}
			used[next] = true
			walk = append(walk, next)
			cur = next
		}
		if len(walk) < 2 {
			continue
		}
		pi := make(graph.Path, 0, len(walk)-1)
		for j := len(walk) - 1; j >= 1; j-- {
			pi = append(pi, walk[j])
		}
		out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: flood.Msg{Body: flood.ValueBody{Value: sim.Value(n.rng.Intn(2))}, Pi: pi}})
	}
	return out
}

// reportBody is a non-value body, as Algorithm 2's reports are: relayed
// unchanged, never through the value table.
type reportBody string

func (b reportBody) Key() string  { return "report:" + string(b) }
func (b reportBody) Slot() string { return string(b) }

// randomInbox draws one round's deliveries for node me: from each neighbor
// a handful of flood messages — real simple paths and garbage, value and
// report bodies, with true hints (of plan hinted's arena, when given),
// wrong hints and none — plus a payload that is no flood message at all.
func randomInbox(rng *rand.Rand, g *graph.Graph, me graph.NodeID, hinted *flood.Plan) []sim.Delivery {
	var inbox []sim.Delivery
	for _, from := range g.AdjList(me) {
		for k := rng.Intn(5); k > 0; k-- {
			var body flood.Body = flood.ValueBody{Value: sim.Value(rng.Intn(2))}
			if rng.Intn(6) == 0 {
				body = reportBody(fmt.Sprint(rng.Intn(3)))
			}
			// Π: a random walk that usually ends next to the sender, so
			// that most messages are relayable, and sometimes is garbage.
			pi := graph.Path{}
			for cur, steps := from, rng.Intn(g.N()); steps > 0 && g.Degree(cur) > 0; steps-- {
				nbrs := g.AdjList(cur)
				cur = nbrs[rng.Intn(len(nbrs))]
				if rng.Intn(12) == 0 {
					cur = graph.NodeID(rng.Intn(g.N() + 1))
				}
				pi = append(graph.Path{cur}, pi...)
			}
			m := flood.Msg{Body: body, Pi: pi, Hint: graph.PathID(rng.Intn(64)) - 1}
			if hinted != nil && rng.Intn(3) > 0 {
				// As an honest sender on that plan's arena would box it.
				a := hinted.Arena()
				ext := a.Root(from)
				if len(pi) > 0 {
					ext = a.Extend(a.Intern(pi), from)
				}
				if ext != graph.NoPath {
					m = hinted.Box(body, ext).(flood.Msg)
				}
			}
			inbox = append(inbox, sim.Delivery{From: from, Payload: m})
		}
	}
	inbox = append(inbox, sim.Delivery{From: g.AdjList(me)[0], Payload: flood.ValueBody{Value: sim.One}})
	return inbox
}

// sameTransmissions compares two outboxes by destination, body identity
// and Π contents — what reaches the wire and the trace.
func sameTransmissions(t *testing.T, ctx string, got, want []sim.Outgoing) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d transmissions, reference has %d", ctx, len(got), len(want))
	}
	for i := range got {
		g, w := got[i].Payload.(flood.Msg), want[i].Payload.(flood.Msg)
		if got[i].To != want[i].To || g.Body.Key() != w.Body.Key() || g.Pi.Key() != w.Pi.Key() {
			t.Fatalf("%s: transmission %d = (to %d, %s, %v), reference has (to %d, %s, %v)", ctx, i,
				got[i].To, g.Body.Key(), g.Pi, want[i].To, w.Body.Key(), w.Pi)
		}
	}
}

// TestRelayParity holds every relaying strategy's arena-walking Step to the
// slice-building reference over random connected graphs, seeds and phase
// lengths: left alone (on the graph's shared plan, hearing hints it cannot
// verify) and handed the plan its senders box from, identical inboxes in,
// byte-identical (To, body, Π) sequences out, and the two random streams
// still in step at the end.
func TestRelayParity(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		n := 5 + int(seed)%3
		g, err := gen.RandomWithMinConnectivity(n, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		plan := flood.CompilePlan(g)
		me := graph.NodeID(int(seed) % n)
		for _, phaseLen := range []int{0, 1, n + 1} {
			for _, wired := range []bool{false, true} {
				// The senders box from a plan of their own either way; only
				// a wired node shares it.
				hinted := plan
				ctx := fmt.Sprintf("seed %d n %d phaseLen %d wired %v", seed, n, phaseLen, wired)
				wire := func(nd interface{ SetPlan(*flood.Plan) }) {
					if wired {
						nd.SetPlan(plan)
					}
				}

				tamper, refT := NewTamper(g, me, phaseLen, seed), NewTamper(g, me, phaseLen, seed)
				fast, refF := NewFastTamper(g, me, phaseLen, seed), NewFastTamper(g, me, phaseLen, seed)
				equiv, refE := &EquivocatorNode{G: g, Me: me, PhaseLen: phaseLen}, &EquivocatorNode{G: g, Me: me, PhaseLen: phaseLen}
				adapt, refA := NewAdaptive(g, me, phaseLen, seed), NewAdaptive(g, me, phaseLen, seed)
				forger, refG := NewForger(g, me, phaseLen, seed), NewForger(g, me, phaseLen, seed)
				wire(tamper)
				wire(fast)
				wire(equiv)
				wire(adapt)
				wire(forger)

				rng := rand.New(rand.NewSource(seed * 977))
				for round := 0; round < 3*(n+1); round++ {
					inbox := randomInbox(rng, g, me, hinted)
					at := fmt.Sprintf("%s round %d", ctx, round)
					sameTransmissions(t, at+" tamper", tamper.Step(round, inbox), refTamperStep(refT, round, inbox))
					sameTransmissions(t, at+" fast tamper", fast.Step(round, inbox), refTamperStep(refF, round, inbox))
					sameTransmissions(t, at+" equivocator", equiv.Step(round, inbox), refEquivocatorStep(refE, round, inbox))
					sameTransmissions(t, at+" adaptive", adapt.Step(round, inbox), refAdaptiveStep(refA, round, inbox))
					sameTransmissions(t, at+" forger", forger.Step(round, inbox), refForgerStep(refG, round))
				}
				for name, pair := range map[string][2]*rand.Rand{
					"tamper": {tamper.rng, refT.rng}, "fast tamper": {fast.rng, refF.rng},
					"adaptive": {adapt.rng, refA.rng}, "forger": {forger.rng, refG.rng},
				} {
					if a, b := pair[0].Int63(), pair[1].Int63(); a != b {
						t.Fatalf("%s %s: random streams diverged (%d vs %d)", ctx, name, a, b)
					}
				}
				if wired != (tamper.plan == plan) {
					t.Fatalf("%s: node relays over the wrong plan", ctx)
				}
			}
		}
	}
}

// TestRelayEmitsVerifiableHints checks the other half of the contract: what
// a wired adversary emits, a receiver on the same arena resolves through
// the hint alone — to the very path the emission names.
func TestRelayEmitsVerifiableHints(t *testing.T) {
	g := gen.Figure1b()
	plan := flood.CompilePlan(g)
	arena := plan.Arena()
	me := graph.NodeID(3)
	n := &EquivocatorNode{G: g, Me: me, PhaseLen: g.N() + 1}
	n.SetPlan(plan)
	rng := rand.New(rand.NewSource(3))
	relayed := 0
	for round := 1; round < 6; round++ {
		for _, o := range n.Step(round, randomInbox(rng, g, me, plan)) {
			m := o.Payload.(flood.Msg)
			want := arena.Intern(m.Pi.Append(me))
			if !arena.IsExtension(m.Hint, m.Pi, me) || m.Hint != want {
				t.Fatalf("round %d: emission (Π=%v, hint %d) does not verify as path %d", round, m.Pi, m.Hint, want)
			}
			relayed++
		}
	}
	if relayed == 0 {
		t.Fatal("no relays to check")
	}
}
