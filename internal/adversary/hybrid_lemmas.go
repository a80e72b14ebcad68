package adversary

import (
	"fmt"

	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file builds the hybrid-model impossibility constructions of
// Appendix D: Lemma D.1 (a set S, |S| ≤ t, with at most 2f neighbors) and
// Lemma D.2 (a vertex cut of size at most ⌊3(f−t)/2⌋ + 2t). Equivocating
// faulty nodes are realized as SplitReplayNodes driven by the transcripts
// of their two clones, delivered through the hybrid transport.

// HybridDegreeAttack builds the Lemma D.1 construction: S (0 < |S| ≤ t)
// has neighborhood N with |N| ≤ 2f. N is partitioned into F¹, F² (each of
// size ≤ f−t), R (non-empty, ≤ t) and T (≤ t); the clone network of Figure
// 4 is simulated and three executions scripted. In E2, S is expected to
// decide 0 while R decides 1.
func HybridDegreeAttack(g *graph.Graph, f, t int, sSet graph.Set, rounds int, factory HonestFactory) (*Attack, error) {
	if t < 1 || t > f {
		return nil, fmt.Errorf("adversary: hybrid degree attack needs 0 < t <= f")
	}
	if sSet.Len() == 0 || sSet.Len() > t {
		return nil, fmt.Errorf("adversary: need 0 < |S| <= t, got %d", sSet.Len())
	}
	phi := f - t
	nbrs := g.SetNeighbors(sSet)
	if len(nbrs) == 0 || len(nbrs) > 2*f {
		return nil, fmt.Errorf("adversary: S has %d neighbors, need 1..%d", len(nbrs), 2*f)
	}
	// R first so it is guaranteed non-empty, then T, F¹, F².
	parts := splitSlice(nbrs, t, t, phi, phi)
	rSet, tSet := graph.NewSet(parts[0]...), graph.NewSet(parts[1]...)
	f1, f2 := graph.NewSet(parts[2]...), graph.NewSet(parts[3]...)
	if rSet.Len()+tSet.Len()+f1.Len()+f2.Len() != len(nbrs) {
		return nil, fmt.Errorf("adversary: neighborhood of S does not fit the (F¹,F²,R,T) partition")
	}
	wSet := graph.NewSet(g.Nodes()...).Minus(sSet).Minus(graph.NewSet(nbrs...))

	cn := NewCloneNet(g)
	for u := range sSet.All() {
		cn.AddClone(u, 0, sim.Zero)
	}
	for u := range f1.All() {
		cn.AddClone(u, 0, sim.Zero)
	}
	for u := range f2.All() {
		cn.AddClone(u, 0, sim.One)
	}
	for u := range rSet.All() {
		cn.AddClone(u, 0, sim.One)
	}
	for u := range tSet.All() {
		cn.AddClone(u, 0, sim.Zero)
		cn.AddClone(u, 1, sim.One)
	}
	for u := range wSet.All() {
		cn.AddClone(u, 0, sim.Zero)
		cn.AddClone(u, 1, sim.One)
	}
	// World parity: which copy of the doubled sets (T, W) a clone hears.
	parity := func(c CloneID) int {
		switch {
		case tSet.Contains(c.Orig) || wSet.Contains(c.Orig):
			return c.Side
		case f2.Contains(c.Orig) || rSet.Contains(c.Orig):
			return 1
		default: // S, F¹ live in the 0-world
			return 0
		}
	}
	err := cn.Wire(func(recv CloneID, sender graph.NodeID) (int, bool) {
		if tSet.Contains(sender) || wSet.Contains(sender) {
			return parity(recv), true
		}
		return 0, true
	})
	if err != nil {
		return nil, err
	}
	scripts, err := cn.Run(rounds, factory)
	if err != nil {
		return nil, err
	}

	all := g.Nodes()
	mkInputs := func(def sim.Value, zeroSet graph.Set) map[graph.NodeID]sim.Value {
		in := make(map[graph.NodeID]sim.Value, len(all))
		for _, u := range all {
			in[u] = def
		}
		for u := range zeroSet.All() {
			in[u] = sim.Zero
		}
		return in
	}
	replay := func(sets ...graph.Set) (graph.Set, map[graph.NodeID]sim.Node) {
		faulty := graph.NewSet()
		byz := make(map[graph.NodeID]sim.Node)
		for _, s := range sets {
			for u := range s.All() {
				faulty.Add(u)
				byz[u] = &ReplayNode{Me: u, Script: scripts[CloneID{Orig: u, Side: 0}]}
			}
		}
		return faulty, byz
	}

	// E1: F²∪R faulty (non-equivocating), all honest inputs 0.
	e1Faulty, e1Byz := replay(f2, rSet)
	// E2: F¹ faulty (non-equivocating) plus T equivocating: toward S the
	// T₀ transcript, toward everyone else the T₁ transcript.
	e2Faulty, e2Byz := replay(f1)
	for u := range tSet.All() {
		e2Faulty.Add(u)
		e2Byz[u] = &SplitReplayNode{
			G:       g,
			Me:      u,
			ClassA:  sSet,
			ScriptA: scripts[CloneID{Orig: u, Side: 0}],
			ScriptB: scripts[CloneID{Orig: u, Side: 1}],
		}
	}
	// E3: F¹∪S faulty (non-equivocating), all honest inputs 1.
	e3Faulty, e3Byz := replay(f1, sSet)

	return &Attack{
		Rounds: rounds,
		Executions: []AttackExecution{
			{
				Name:               "E1",
				Faulty:             e1Faulty,
				Inputs:             mkInputs(sim.Zero, 0),
				Byzantine:          e1Byz,
				ExpectHonestOutput: valuePtr(sim.Zero),
			},
			{
				Name:         "E2",
				Faulty:       e2Faulty,
				Equivocators: tSet,
				Inputs:       mkInputs(sim.One, sSet),
				Byzantine:    e2Byz,
			},
			{
				Name:               "E3",
				Faulty:             e3Faulty,
				Inputs:             mkInputs(sim.One, 0),
				Byzantine:          e3Byz,
				ExpectHonestOutput: valuePtr(sim.One),
			},
		},
	}, nil
}

// HybridCutAttack builds the Lemma D.2 construction for a vertex cut of
// size at most ⌊3(f−t)/2⌋ + 2t separating A from B (Figure 5). In E2, side
// A is expected to decide 0 while side B decides 1.
func HybridCutAttack(g *graph.Graph, f, t int, aSet, bSet, cut graph.Set, rounds int, factory HonestFactory) (*Attack, error) {
	if t < 0 || t > f {
		return nil, fmt.Errorf("adversary: hybrid cut attack needs 0 <= t <= f")
	}
	phi := f - t
	if cut.Len() > 3*phi/2+2*t {
		return nil, fmt.Errorf("adversary: cut size %d exceeds ⌊3(f-t)/2⌋+2t = %d", cut.Len(), 3*phi/2+2*t)
	}
	if aSet.Len() == 0 || bSet.Len() == 0 {
		return nil, fmt.Errorf("adversary: cut attack needs non-empty sides")
	}
	cs := cut.Slice()
	parts := splitSlice(cs, t, t, phi/2, phi/2, len(cs))
	rSet, tSet := graph.NewSet(parts[0]...), graph.NewSet(parts[1]...)
	c1, c2, c3 := graph.NewSet(parts[2]...), graph.NewSet(parts[3]...), graph.NewSet(parts[4]...)
	if c3.Len() > (phi+1)/2 {
		return nil, fmt.Errorf("adversary: cut partition failed: |C3|=%d > ⌈(f-t)/2⌉", c3.Len())
	}

	cn := NewCloneNet(g)
	for u := range aSet.Union(bSet).Union(rSet).Union(tSet).All() {
		v0 := sim.Zero
		cn.AddClone(u, 0, v0)
		cn.AddClone(u, 1, sim.One)
	}
	for u := range c1.All() {
		cn.AddClone(u, 0, sim.Zero)
	}
	for u := range c2.Union(c3).All() {
		cn.AddClone(u, 0, sim.One)
	}

	// Per-receiver side tables, derived from which executions each clone
	// models (see package comment in clonenet.go and DESIGN.md):
	//   recv     A  B  R  T
	//   A0       0  -  0  1
	//   A1       1  -  1  0
	//   B0       -  0  0  0
	//   B1       -  1  1  1
	//   C1       0  0  0  0
	//   C2       0  1  1  1
	//   C3       1  1  1  0
	//   R0       0  0  0  0
	//   R1       1  1  1  0
	//   T0       0  0  0  0
	//   T1       0  1  1  1
	side := func(recv CloneID, class string) int {
		o, s := recv.Orig, recv.Side
		switch {
		case aSet.Contains(o):
			if class == "T" {
				return 1 - s
			}
			return s
		case bSet.Contains(o):
			return s
		case c1.Contains(o), rSet.Contains(o) && s == 0, tSet.Contains(o) && s == 0:
			return 0
		case c2.Contains(o):
			if class == "A" {
				return 0
			}
			return 1
		case c3.Contains(o):
			if class == "T" {
				return 0
			}
			return 1
		case rSet.Contains(o): // R1
			if class == "T" {
				return 0
			}
			return 1
		case tSet.Contains(o): // T1
			if class == "A" {
				return 0
			}
			return 1
		}
		return 0
	}
	err := cn.Wire(func(recv CloneID, sender graph.NodeID) (int, bool) {
		switch {
		case aSet.Contains(sender):
			return side(recv, "A"), true
		case bSet.Contains(sender):
			return side(recv, "B"), true
		case rSet.Contains(sender):
			return side(recv, "R"), true
		case tSet.Contains(sender):
			return side(recv, "T"), true
		default: // C1, C2, C3 singles
			return 0, true
		}
	})
	if err != nil {
		return nil, err
	}
	scripts, err := cn.Run(rounds, factory)
	if err != nil {
		return nil, err
	}

	all := g.Nodes()
	mkInputs := func(def sim.Value, zeroSet graph.Set) map[graph.NodeID]sim.Value {
		in := make(map[graph.NodeID]sim.Value, len(all))
		for _, u := range all {
			in[u] = def
		}
		for u := range zeroSet.All() {
			in[u] = sim.Zero
		}
		return in
	}
	replay := func(sets ...graph.Set) (graph.Set, map[graph.NodeID]sim.Node) {
		faulty := graph.NewSet()
		byz := make(map[graph.NodeID]sim.Node)
		for _, s := range sets {
			for u := range s.All() {
				faulty.Add(u)
				byz[u] = &ReplayNode{Me: u, Script: scripts[CloneID{Orig: u, Side: 0}]}
			}
		}
		return faulty, byz
	}
	split := func(byz map[graph.NodeID]sim.Node, faulty *graph.Set, equivSet, classA graph.Set, sideA int) {
		for u := range equivSet.All() {
			faulty.Add(u)
			byz[u] = &SplitReplayNode{
				G:       g,
				Me:      u,
				ClassA:  classA,
				ScriptA: scripts[CloneID{Orig: u, Side: sideA}],
				ScriptB: scripts[CloneID{Orig: u, Side: 1 - sideA}],
			}
		}
	}

	// E1: C²∪C³ replay, T equivocates (toward A: T₁; else T₀).
	e1Faulty, e1Byz := replay(c2, c3)
	split(e1Byz, &e1Faulty, tSet, aSet, 1)
	// E2: C¹∪C³ replay, R equivocates (toward A: R₀; else R₁).
	e2Faulty, e2Byz := replay(c1, c3)
	split(e2Byz, &e2Faulty, rSet, aSet, 0)
	// E3: C¹∪C² replay, T equivocates (toward B: T₁; else T₀).
	e3Faulty, e3Byz := replay(c1, c2)
	split(e3Byz, &e3Faulty, tSet, bSet, 1)

	return &Attack{
		Rounds: rounds,
		Executions: []AttackExecution{
			{
				Name:               "E1",
				Faulty:             e1Faulty,
				Equivocators:       tSet,
				Inputs:             mkInputs(sim.Zero, 0),
				Byzantine:          e1Byz,
				ExpectHonestOutput: valuePtr(sim.Zero),
			},
			{
				Name:         "E2",
				Faulty:       e2Faulty,
				Equivocators: rSet,
				Inputs:       mkInputs(sim.One, aSet),
				Byzantine:    e2Byz,
			},
			{
				Name:               "E3",
				Faulty:             e3Faulty,
				Equivocators:       tSet,
				Inputs:             mkInputs(sim.One, 0),
				Byzantine:          e3Byz,
				ExpectHonestOutput: valuePtr(sim.One),
			},
		},
	}, nil
}
