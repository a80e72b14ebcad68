package eval

import (
	"fmt"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// The overlay suite holds value-faulty worlds replayed from the benign
// plan (flood.Overlay) to the dynamic rules: every run's trace must match
// its forced-dynamic twin, whether the faulty nodes' sends fit the overlay
// or not, and the per-run misfit count shows which side of the switch each
// phase took.

// fitBreaker is a Byzantine relay that initiates value 1 at every phase
// start and relays every message it can extend, unchanged, over the
// benign plan — sends that fit the overlay — except for one deviation,
// named by rule.
type fitBreaker struct {
	g        *graph.Graph
	me       graph.NodeID
	phaseLen int
	rule     string
	plan     *flood.Plan
}

func (b *fitBreaker) ID() graph.NodeID { return b.me }

// SetPlan takes the plan eval hands to the adversaries of an overlay run.
func (b *fitBreaker) SetPlan(p *flood.Plan) { b.plan = p }

func (b *fitBreaker) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	p := b.plan
	if p == nil {
		p = flood.PlanFor(b.g.SharedAnalysis())
	}
	a := p.Arena()
	send := func(out []sim.Outgoing, to graph.NodeID, body flood.Body, ext graph.PathID) []sim.Outgoing {
		return append(out, sim.Outgoing{To: to, Payload: p.Box(body, ext)})
	}
	var out []sim.Outgoing
	r := round % b.phaseLen
	if r == 0 {
		switch b.rule {
		case "no root initiation":
		case "unicast under Hybrid":
			for i, nb := range b.g.AdjList(b.me) {
				out = send(out, nb, flood.ValueBody{Value: sim.Value(i % 2)}, a.Root(b.me))
			}
		default:
			out = send(out, sim.Broadcast, flood.ValueBody{Value: sim.One}, a.Root(b.me))
		}
		if b.rule == "repeat with a different body" {
			out = send(out, sim.Broadcast, flood.ValueBody{Value: sim.Zero}, a.Root(b.me))
		}
		return out
	}
	for _, d := range inbox {
		m, ok := d.Payload.(flood.Msg)
		if !ok {
			continue
		}
		full := m.ProvenanceIn(a, d.From)
		if full == graph.NoPath {
			continue
		}
		if ext := a.Extend(full, b.me); ext != graph.NoPath {
			body := m.Body
			if b.rule == "non-canonical body" && r == 2 {
				body = flood.ValueBody{Value: 2}
			}
			out = send(out, sim.Broadcast, body, ext)
		}
	}
	switch {
	case b.rule == "off-time send" && r == 1:
		// A three-node path, due in round 2.
		nb := b.g.AdjList(b.me)[0]
		for _, x := range b.g.AdjList(nb) {
			if ext := a.Extend(a.Extend(a.Root(x), nb), b.me); x != b.me && ext != graph.NoPath {
				out = send(out, sim.Broadcast, flood.ValueBody{Value: sim.Zero}, ext)
				break
			}
		}
	case b.rule == "out of plan order" && r == 2:
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	case b.rule == "repeat with a different body" && r == 3:
		// The root again, long after every neighbour took its key.
		out = send(out, sim.Broadcast, flood.ValueBody{Value: sim.Zero}, a.Root(b.me))
	}
	return out
}

// overlayTraced runs spec once with an observer, as runTracedShared does on
// a fresh analysis, and returns its trace, the number of its phases that
// left the overlay, and whether its group ran on one at all.
func overlayTraced(t *testing.T, spec Spec) (trace string, misfits int, overlaid bool) {
	t.Helper()
	prev := phaseEndHook
	phaseEndHook = func(s *BatchSession, st *batchLoopState, phase int) {
		if prev != nil {
			prev(s, st, phase)
		}
		if grp := st.groups[0]; grp.rs != nil {
			if ov, _ := grp.rs.Taint(); ov != nil {
				overlaid, misfits = true, ov.Misfits()
			}
		}
	}
	defer func() { phaseEndHook = prev }()
	trace = runTracedShared(t, spec, graph.NewAnalysis(spec.G))
	return trace, misfits, overlaid
}

// checkOverlayParity runs the spec on the overlay and on the forced-dynamic
// path, with adversaries fresh from mk on each side, requires identical
// traces, and returns the overlay side's misfit count.
func checkOverlayParity(t *testing.T, spec Spec, mk func() map[graph.NodeID]sim.Node) int {
	t.Helper()
	spec.Byzantine = mk()
	replayed, misfits, overlaid := overlayTraced(t, spec)
	if !overlaid {
		t.Fatal("run did not replay through an overlay")
	}
	spec.Byzantine, spec.forceDynamic = mk(), true
	if dynamic := runTracedShared(t, spec, graph.NewAnalysis(spec.G)); replayed != dynamic {
		t.Fatalf("overlay and dynamic executions diverge:\noverlay:\n%s\ndynamic:\n%s", replayed, dynamic)
	}
	return misfits
}

// TestOverlayFitRulesParity runs one hand-written Byzantine node per fit
// rule it breaks. Every run must match its forced-dynamic twin; the nodes
// that break a rule must leave the overlay, and a repeat of a path already
// sent — discarded by every receiver, first send wins — must not.
func TestOverlayFitRulesParity(t *testing.T) {
	checkPhaseStructure(t)
	g := gen.Figure1b()
	n := g.N()
	inputs := churnInputs(n, 0)
	cases := []struct {
		rule   string
		spec   Spec
		misfit bool
	}{
		{rule: "off-time send", misfit: true},
		{rule: "out of plan order", misfit: true},
		{rule: "non-canonical body", misfit: true},
		{rule: "no root initiation", misfit: true},
		{rule: "repeat with a different body", misfit: false},
		{rule: "unicast under Hybrid", misfit: true,
			spec: Spec{Algorithm: Algo3, T: 1, Model: sim.Hybrid, Equivocators: graph.NewSet(3)}},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			spec := tc.spec
			spec.G, spec.F, spec.Inputs = g, 2, inputs
			if spec.Algorithm == 0 {
				spec.Algorithm = Algo1
			}
			mk := func() map[graph.NodeID]sim.Node {
				return map[graph.NodeID]sim.Node{3: &fitBreaker{g: g, me: 3, phaseLen: lbPhaseRounds(n), rule: tc.rule}}
			}
			if misfits := checkOverlayParity(t, spec, mk); (misfits > 0) != tc.misfit {
				t.Errorf("%d phases left the overlay, want misfits %v", misfits, tc.misfit)
			}
		})
	}
}

// TestOverlayValueFaultWorldsParity holds the library's value-faulty
// strategies on Figure 1(a) and 1(b) to the dynamic rules: tamper and
// equivocation send only what fits, so they replay every phase from the
// overlay; forgery sends paths off their round, so its worlds leave it.
func TestOverlayValueFaultWorldsParity(t *testing.T) {
	checkPhaseStructure(t)
	worlds := []struct {
		name   string
		g      *graph.Graph
		f      int
		faulty [][]graph.NodeID
	}{
		{"figure1a", gen.Figure1a(), 1, [][]graph.NodeID{{0}, {2}}},
		{"figure1b", gen.Figure1b(), 2, [][]graph.NodeID{{3}, {2, 6}}},
	}
	for _, w := range worlds {
		n := w.g.N()
		phaseLen := lbPhaseRounds(n)
		for _, strategy := range []string{"tamper", "equivocate", "forge"} {
			for _, faulty := range w.faulty {
				t.Run(fmt.Sprintf("%s/%s@%v", w.name, strategy, faulty), func(t *testing.T) {
					mk := func() map[graph.NodeID]sim.Node {
						byz := make(map[graph.NodeID]sim.Node, len(faulty))
						for _, u := range faulty {
							switch strategy {
							case "tamper":
								byz[u] = adversary.NewTamper(w.g, u, phaseLen, int64(u)+11)
							case "equivocate":
								byz[u] = &adversary.EquivocatorNode{G: w.g, Me: u, PhaseLen: phaseLen}
							default:
								byz[u] = adversary.NewForger(w.g, u, phaseLen, int64(u)+11)
							}
						}
						return byz
					}
					spec := Spec{G: w.g, F: w.f, Algorithm: Algo1, Inputs: churnInputs(n, 1)}
					misfits := checkOverlayParity(t, spec, mk)
					if forge := strategy == "forge"; forge != (misfits > 0) {
						t.Errorf("%d phases left the overlay (forgery: %v)", misfits, forge)
					}
				})
			}
		}
	}
}
