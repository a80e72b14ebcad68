package eval

import (
	"context"
	"sync"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/check"
	"lbcast/internal/core"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// The phase-structure check asserts, at every phase end of every checked
// run, the two facts about phases that the sufficiency proof of Algorithms
// 1 and 3 rests on (DESIGN.md §2, "The proof's phase structure"):
//
//   - fact (i): after the phase whose candidate sets equal the actual
//     faulty sets (F = F*, and for Algorithm 3 also T = T*), every honest
//     γ is equal;
//   - fact (ii): once every honest γ is equal, no later phase changes any
//     of them.
//
// End-of-run checks see only the decisions, so a step-(b) or step-(c) bug
// that a later phase repairs passes them; this check sees the phase itself.

// phaseTrack is one instance's progress through the facts.
type phaseTrack struct {
	skip   bool // outside the facts' hypotheses, or already reported
	agreed bool
	value  sim.Value
	star   int // index of the phase (F*, T*), -1 when no fact (i) applies
}

// phaseChecker is the phase-end hook's state. Monte Carlo workers call the
// hook concurrently, one run each, so the per-run tracks are guarded.
type phaseChecker struct {
	t        testing.TB
	mu       sync.Mutex
	runs     map[*batchLoopState][]phaseTrack
	feasible map[*graph.Graph]bool
	// agreementPhases counts the phase ends at which fact (i) was asserted.
	agreementPhases int
}

// checkPhaseStructure installs the phase-structure check for every run the
// test starts from now on, and removes it when the test ends. The hook is
// a package variable, so a test that calls this must not run in parallel.
func checkPhaseStructure(t testing.TB) *phaseChecker {
	t.Helper()
	pc := &phaseChecker{t: t, runs: map[*batchLoopState][]phaseTrack{}, feasible: map[*graph.Graph]bool{}}
	phaseEndHook = pc.phaseEnd
	t.Cleanup(func() { phaseEndHook = nil })
	return pc
}

func (pc *phaseChecker) phaseEnd(s *BatchSession, st *batchLoopState, phase int) {
	b := s.base
	if st.churn != nil || (b.Algorithm != Algo1 && b.Algorithm != Algo3) {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if phase == 0 {
		pc.runs[st] = pc.start(s, st)
	}
	tracks := pc.runs[st]
	for i := range st.insts {
		tr := &tracks[i]
		if tr.skip || st.insts[i].retired {
			continue
		}
		x, agree := honestGamma(st, i)
		if tr.agreed && (!agree || x != tr.value) {
			pc.t.Errorf("fact (ii) broken on %v f=%d t=%d instance %d: phase %d changed an honest γ after all were %v",
				b.G, b.F, b.T, i, phase, tr.value)
			tr.skip = true
			continue
		}
		if phase == tr.star {
			pc.agreementPhases++
			if !agree {
				pc.t.Errorf("fact (i) broken on %v f=%d t=%d instance %d: honest γ differ after the phase of the actual faulty set (phase %d)",
					b.G, b.F, b.T, i, phase)
				tr.skip = true
				continue
			}
		}
		if agree && !tr.agreed {
			tr.agreed, tr.value = true, x
		}
	}
}

// start sets up the tracks of a run at its first phase end: agreement
// holds from the start when every honest input is equal, and fact (i)
// applies at the phase of the actual faulty sets when the paper's
// conditions hold. Both facts assume at most f actual faults.
func (pc *phaseChecker) start(s *BatchSession, st *batchLoopState) []phaseTrack {
	b := s.base
	n := b.G.N()
	feasible, ok := pc.feasible[b.G]
	if !ok {
		if b.Algorithm == Algo3 {
			feasible = check.Hybrid(b.G, b.F, b.T).OK
		} else {
			feasible = check.LocalBroadcast(b.G, b.F).OK
		}
		pc.feasible[b.G] = feasible
	}
	var phases []core.PhaseSpec
	if b.Algorithm == Algo3 {
		phases = core.HybridPhases(n, b.F, b.T)
	} else {
		phases = core.Algo1Phases(n, b.F)
	}
	tracks := make([]phaseTrack, len(st.insts))
	for i := range tracks {
		tr := &tracks[i]
		tr.star = -1
		faulty, equiv := graph.NewSet(), graph.NewSet()
		for u := range s.spec.Instances[i].Byzantine {
			if b.Algorithm == Algo3 && b.Model == sim.Hybrid && b.Equivocators.Contains(u) {
				equiv.Add(u)
			} else {
				faulty.Add(u)
			}
		}
		if faulty.Len()+equiv.Len() > b.F {
			tr.skip = true
			continue
		}
		var first sim.Value
		tr.agreed = true
		for k, u := range st.insts[i].honest.Slice() {
			if v := s.slabs[i][u]; k == 0 {
				first = v
			} else if v != first {
				tr.agreed = false
			}
		}
		tr.value = first
		if !feasible {
			continue
		}
		for p, ph := range phases {
			if ph.F.Equal(faulty) && ph.T.Equal(equiv) {
				tr.star = p
				break
			}
		}
	}
	return tracks
}

// honestGamma reads instance i's honest states through the phase nodes and
// reports whether they are all equal (and to what).
func honestGamma(st *batchLoopState, i int) (sim.Value, bool) {
	in := &st.insts[i]
	var x sim.Value
	first := true
	same := func(v sim.Value) bool {
		if first {
			x, first = v, false
		}
		return v == x
	}
	agree := true
	for u, vn := range st.groups[in.group].phase {
		if in.honest.Contains(graph.NodeID(u)) {
			agree = same(vn.LaneGamma(in.lane)) && agree
		}
	}
	return x, agree
}

// TestPhaseStructureBatchLanes checks a mixed batch: benign lanes on one
// shared lane group beside faulty one-lane instances, all read through the
// lane accessor, all run to the full budget so every instance reaches the
// phase of its faulty set.
func TestPhaseStructureBatchLanes(t *testing.T) {
	g := gen.Figure1b()
	pr := core.PhaseRounds(g.N())
	var insts []BatchInstance
	for k := 0; k < 6; k++ {
		slab := make([]sim.Value, g.N())
		for u := range slab {
			slab[u] = sim.Value((u*(k+1) + k) % 2)
		}
		inst := BatchInstance{InputSlab: slab}
		switch k % 3 {
		case 1:
			inst.Byzantine = map[graph.NodeID]sim.Node{graph.NodeID(k): adversary.NewTamper(g, graph.NodeID(k), pr, int64(k))}
		case 2:
			inst.Byzantine = map[graph.NodeID]sim.Node{0: &adversary.SilentNode{Me: 0}, 5: adversary.NewForger(g, 5, pr, 3)}
		}
		insts = append(insts, inst)
	}
	pc := checkPhaseStructure(t)
	out, err := RunBatch(context.Background(), BatchSpec{G: g, F: 2, Algorithm: Algo1, FullBudget: true, Instances: insts})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("consensus failed: %+v", out)
	}
	if pc.agreementPhases != len(insts) {
		t.Fatalf("fact (i) asserted %d times, want once per instance (%d)", pc.agreementPhases, len(insts))
	}
}
