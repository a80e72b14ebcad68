package eval

import (
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/faultinject"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// These tests pin the pool-key contract this PR tightened: recycled run
// state must never cross fault shapes. A crash mask replays a masked plan
// (its own arena, blackboard prefill, and step-(b) cache), the same
// vertices value-faulty replay the benign plan's delta fragment, and the
// benign world replays wholesale — wiring that reset cannot convert, so
// each must key its own pool.

// sessionShape is the run-pool key of spec's one-instance batch.
func sessionShape(spec Spec) runShape {
	s, err := NewSession(spec)
	if err != nil {
		panic(err)
	}
	return s.batch.shape()
}

// TestPoolKeySeparatesFaultShapes requires distinct pool keys for the
// benign world, a crash mask, the same vertices value-faulty, and a
// different crash mask — and equal keys for equal shapes.
func TestPoolKeySeparatesFaultShapes(t *testing.T) {
	g := gen.Figure1b()
	phaseLen := lbPhaseRounds(g.N())
	base := Spec{G: g, F: 2, Algorithm: Algo1}
	withByz := func(byz map[graph.NodeID]sim.Node) Spec {
		s := base
		s.Byzantine = byz
		return s
	}
	shapes := map[string]runShape{
		"benign":    sessionShape(base),
		"crash@2":   sessionShape(withByz(map[graph.NodeID]sim.Node{2: &adversary.SilentNode{Me: 2}})),
		"tamper@2":  sessionShape(withByz(map[graph.NodeID]sim.Node{2: adversary.NewTamper(g, 2, phaseLen, 7)})),
		"crash@6":   sessionShape(withByz(map[graph.NodeID]sim.Node{6: &adversary.SilentNode{Me: 6}})),
		"crash@2,6": sessionShape(withByz(map[graph.NodeID]sim.Node{2: &adversary.SilentNode{Me: 2}, 6: &adversary.SilentNode{Me: 6}})),
		"mixed@2,6": sessionShape(withByz(map[graph.NodeID]sim.Node{2: &adversary.SilentNode{Me: 2}, 6: adversary.NewTamper(g, 6, phaseLen, 7)})),
	}
	for a, sa := range shapes {
		for b, sb := range shapes {
			if (a == b) != (sa == sb) {
				t.Errorf("shapes %q and %q: key equality %v, want %v (keys %+v vs %+v)", a, b, sa == sb, a == b, sa, sb)
			}
		}
	}
	// Same placement, different adversary values of the SAME kind must
	// share a key: reset re-plugs the values.
	reseed := sessionShape(withByz(map[graph.NodeID]sim.Node{2: adversary.NewTamper(g, 2, phaseLen, 99)}))
	if reseed != shapes["tamper@2"] {
		t.Errorf("re-seeded tamper at the same vertex must share the pool key: %+v vs %+v", reseed, shapes["tamper@2"])
	}
}

// TestPoolKeySeparatesChurn extends the matrix with the churn mark this PR
// added: an injected world routes through a masked topology and frontier
// replay, wiring a static-world reset cannot convert, so benign and
// benign-plus-churn must never share a key. Two different non-empty
// schedules DO share a key — only the mark is in the shape; the schedule
// contents (and hence the frontier) are re-armed on every reset.
func TestPoolKeySeparatesChurn(t *testing.T) {
	g := gen.Figure1b()
	base := Spec{G: g, F: 2, Algorithm: Algo1}
	withChurn := func(sched *faultinject.Schedule) Spec {
		s := base
		s.Churn = sched
		return s
	}
	early := &faultinject.Schedule{Events: []faultinject.Event{
		{Round: 0, Kind: faultinject.EdgeDown, U: 0, V: 1},
	}}
	late := &faultinject.Schedule{Events: []faultinject.Event{
		{Round: 9, Kind: faultinject.NodeDown, Node: 6},
	}}
	static := sessionShape(base)
	if sessionShape(withChurn(early)) == static {
		t.Error("injected world shares the static world's pool key")
	}
	// Empty schedules are the static world — Empty() gates the whole layer.
	if sessionShape(withChurn(nil)) != static || sessionShape(withChurn(&faultinject.Schedule{})) != static {
		t.Error("zero-event schedule must share the static world's pool key")
	}
	if sessionShape(withChurn(early)) != sessionShape(withChurn(late)) {
		t.Error("two injected worlds with different schedules must share a pool key (contents re-arm on reset)")
	}
	// The churn mark composes with the fault-kind marks.
	crash := withChurn(early)
	crash.Byzantine = map[graph.NodeID]sim.Node{2: &adversary.SilentNode{Me: 2}}
	if sessionShape(crash) == sessionShape(withChurn(early)) {
		t.Error("churn+crash shares churn-only pool key")
	}
}
