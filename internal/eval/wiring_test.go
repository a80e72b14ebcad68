package eval

import (
	"math"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/core"
	"lbcast/internal/faultinject"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// listeningCrash is a crash-from-start fault that does not promise to
// ignore its inbox: it admits its group to masked replay but not to
// phantom transmissions.
type listeningCrash struct{ adversary.SilentNode }

func (*listeningCrash) IgnoresInbox() bool { return false }

// TestGroupWiringPerSpecKind pins how each kind of spec wires its lane
// group to the compiled plans. The parity suites cannot see a group that
// silently falls back to dynamic flooding (the bytes are the same), so
// this checks the wiring itself: the plan, the phantom toggle, the taint
// fragment and frontier, the pooling decision, and that every honest
// phase node promises to ignore its inbox exactly when its group replays
// every phase.
func TestGroupWiringPerSpecKind(t *testing.T) {
	g := gen.Figure1b()
	n := g.N()
	topo := g.SharedAnalysis()
	phaseLen := core.PhaseRounds(n)
	inputs := churnInputs(n, 0)
	churn := &faultinject.Schedule{Events: []faultinject.Event{
		{Round: phaseLen + 1, Kind: faultinject.EdgeDown, U: 2, V: 3},
	}}
	silent := func() map[graph.NodeID]sim.Node {
		return map[graph.NodeID]sim.Node{5: &adversary.SilentNode{Me: 5}}
	}
	tamper := func() map[graph.NodeID]sim.Node {
		return map[graph.NodeID]sim.Node{3: adversary.NewTamper(g, 3, phaseLen, 7)}
	}
	const (
		none = iota
		benign
		masked
		delta
	)
	cases := []struct {
		name     string
		spec     Spec
		batch    int // lanes of a benign batch (the vector group); 0 for a session
		plan     int
		phantom  bool
		frontier int // first phase that does not replay; 0 with a fragment
		pooled   bool
	}{
		{name: "benign", spec: Spec{}, plan: benign, phantom: true, frontier: math.MaxInt, pooled: true},
		{name: "benign vector group", spec: Spec{}, batch: 3, plan: benign, phantom: true, frontier: math.MaxInt, pooled: true},
		{name: "all silent", spec: Spec{Byzantine: silent()}, plan: masked, phantom: true, frontier: math.MaxInt, pooled: true},
		{name: "all silent, one listening", spec: Spec{Byzantine: map[graph.NodeID]sim.Node{
			5: &listeningCrash{adversary.SilentNode{Me: 5}},
		}}, plan: masked, frontier: math.MaxInt, pooled: true},
		{name: "tamper", spec: Spec{Byzantine: tamper()}, plan: delta, pooled: true},
		{name: "benign churn", spec: Spec{Churn: churn}, plan: benign, frontier: churnFrontierPhase(g, churn), pooled: true},
		{name: "tamper churn", spec: Spec{Byzantine: tamper(), Churn: churn}, plan: none},
		{name: "algorithm 2", spec: Spec{Algorithm: Algo2}, plan: none},
		{name: "benign observed", spec: Spec{Observer: &sim.Recorder{}}, plan: benign, frontier: math.MaxInt, pooled: true},
		{name: "all silent observed", spec: Spec{Byzantine: silent(), Observer: &sim.Recorder{}}, plan: masked, frontier: math.MaxInt, pooled: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.G, spec.F, spec.Inputs = g, 2, inputs
			var s *BatchSession
			if tc.batch > 0 {
				insts := make([]BatchInstance, tc.batch)
				for i := range insts {
					insts[i] = BatchInstance{Inputs: inputs}
				}
				var err error
				if s, err = NewBatchSession(BatchSpec{G: g, F: 2, Instances: insts, Observer: spec.Observer}); err != nil {
					t.Fatal(err)
				}
			} else {
				sess, err := NewSession(spec)
				if err != nil {
					t.Fatal(err)
				}
				s = &sess.batch
			}
			if s.pooled != tc.pooled {
				t.Errorf("pooled = %v, want %v", s.pooled, tc.pooled)
			}
			st, err := newBatchLoopState(s)
			if err != nil {
				t.Fatal(err)
			}
			defer st.eng.Close()
			if len(st.groups) != 1 {
				t.Fatalf("%d lane groups, want 1", len(st.groups))
			}
			if tc.batch > 0 && len(st.groups[0].lanes) < 2 {
				t.Fatal("benign batch did not form a vector group")
			}
			rs := st.groups[0].rs
			if tc.plan == none {
				if rs != nil {
					t.Fatalf("group wired to a plan (mode %d), want none", st.groups[0].mode)
				}
				return
			}
			if rs == nil {
				t.Fatalf("group not wired (mode %d)", st.groups[0].mode)
			}
			dp, frontier := rs.Taint()
			switch tc.plan {
			case benign:
				if rs.Plan() != flood.PlanFor(topo) {
					t.Error("group does not use the benign plan")
				}
			case masked:
				if rs.Plan() != flood.MaskedPlanFor(topo, byzSet(spec.Byzantine)) {
					t.Error("group does not use the fault pattern's masked plan")
				}
			case delta:
				if dp == nil || dp.Faulty() != byzSet(spec.Byzantine) || rs.Plan() != flood.PlanFor(topo) {
					t.Error("group does not carry the fault pattern's overlay of the benign plan")
				}
			}
			if tc.plan != delta && dp != nil {
				t.Error("group carries a taint fragment, want none")
			}
			if frontier != tc.frontier {
				t.Errorf("taint frontier = %d, want %d", frontier, tc.frontier)
			}
			if rs.Phantom() != tc.phantom {
				t.Errorf("phantom = %v, want %v", rs.Phantom(), tc.phantom)
			}
			replaysAll := frontier == math.MaxInt
			for _, vn := range st.groups[0].phase {
				if vn != nil && vn.IgnoresInbox() != replaysAll {
					t.Errorf("node %d (%d lanes): IgnoresInbox = %v, want %v", vn.ID(), vn.Lanes(), vn.IgnoresInbox(), replaysAll)
				}
			}
		})
	}
}

// TestChurnResetRearmsFrontier checks that a recycled churn run takes the
// taint frontier of the schedule it is reset for, not the one it was built
// for: the pool key marks churn presence, not schedule contents.
func TestChurnResetRearmsFrontier(t *testing.T) {
	g := gen.Figure1b()
	phaseLen := core.PhaseRounds(g.N())
	session := func(round int) *Session {
		sched := &faultinject.Schedule{Events: []faultinject.Event{
			{Round: round, Kind: faultinject.EdgeDown, U: 2, V: 3},
		}}
		sess, err := NewSession(Spec{G: g, F: 2, Inputs: churnInputs(g.N(), 0), Churn: sched})
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	built, reused := session(phaseLen+1), session(3*phaseLen)
	st, err := newBatchLoopState(&built.batch)
	if err != nil {
		t.Fatal(err)
	}
	defer st.eng.Close()
	if err := st.reset(&reused.batch); err != nil {
		t.Fatal(err)
	}
	if _, frontier := st.groups[0].rs.Taint(); frontier != 3 {
		t.Errorf("taint frontier after reset = %d, want 3", frontier)
	}
}
