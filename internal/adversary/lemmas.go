package adversary

import (
	"fmt"

	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// Attack is a ready-to-run necessity demonstration: the three executions
// E1, E2, E3 of the relevant impossibility lemma, with Byzantine behavior
// scripted from a clone-network run. By the lemma's argument, any algorithm
// must violate validity in E1 or E3, or agreement in E2.
type Attack struct {
	// Rounds is the execution length each scripted run covers.
	Rounds int
	// Executions are E1, E2, E3 in order.
	Executions []AttackExecution
}

// AttackExecution is one execution on the real graph G.
type AttackExecution struct {
	Name string
	// Faulty is the Byzantine node set.
	Faulty graph.Set
	// Equivocators is the subset of Faulty permitted to equivocate (used
	// with the hybrid transport; empty under pure local broadcast).
	Equivocators graph.Set
	// Inputs gives every honest node's input.
	Inputs map[graph.NodeID]sim.Value
	// Byzantine supplies the scripted node for every member of Faulty.
	Byzantine map[graph.NodeID]sim.Node
	// ExpectHonestOutput is the validity expectation for E1/E3 (all
	// honest nodes must output this value if the algorithm is correct);
	// nil for E2, where the lemma instead predicts disagreement.
	ExpectHonestOutput *sim.Value
}

// HonestFactory builds the honest per-node procedure A_u with a given
// input; it is used both to populate the clone network and to instantiate
// the honest nodes of the real executions.
type HonestFactory func(orig graph.NodeID, input sim.Value) sim.Node

func valuePtr(v sim.Value) *sim.Value { return &v }

// splitSlice partitions items into consecutive chunks of the given sizes.
func splitSlice(items []graph.NodeID, sizes ...int) [][]graph.NodeID {
	out := make([][]graph.NodeID, len(sizes))
	i := 0
	for k, sz := range sizes {
		if sz > len(items)-i {
			sz = len(items) - i
		}
		if sz < 0 {
			sz = 0
		}
		out[k] = items[i : i+sz]
		i += sz
	}
	return out
}

// DegreeAttack builds the Lemma A.1 construction for a node z of degree at
// most 2f−1 under the local broadcast model: the neighborhood of z is
// partitioned into F¹ (|F¹| < f) and F² (non-empty, |F²| ≤ f), the clone
// network of Figure 2 is simulated with factory, and the three executions
// are scripted. In E2, node z is expected to decide 0 while W ∪ F² decide
// 1.
func DegreeAttack(g *graph.Graph, f int, z graph.NodeID, rounds int, factory HonestFactory) (*Attack, error) {
	if f < 1 {
		return nil, fmt.Errorf("adversary: degree attack needs f >= 1")
	}
	nbrs := g.Neighbors(z)
	if len(nbrs) == 0 || len(nbrs) > 2*f-1 {
		return nil, fmt.Errorf("adversary: node %d has degree %d, need 1..%d", z, len(nbrs), 2*f-1)
	}
	f2Size := len(nbrs)
	if f2Size > f {
		f2Size = f
	}
	parts := splitSlice(nbrs, len(nbrs)-f2Size, f2Size)
	f1, f2 := graph.NewSet(parts[0]...), graph.NewSet(parts[1]...)
	wSet := graph.NewSet(g.Nodes()...).Minus(f1).Minus(f2)
	wSet.Remove(z)

	// Clone network 𝒢 (Figure 2): single copies of z, F¹, F² and two
	// copies W₀/W₁ of everything else.
	cn := NewCloneNet(g)
	cn.AddClone(z, 0, sim.Zero)
	for u := range f1.All() {
		cn.AddClone(u, 0, sim.Zero)
	}
	for u := range f2.All() {
		cn.AddClone(u, 0, sim.One)
	}
	for u := range wSet.All() {
		cn.AddClone(u, 0, sim.Zero)
		cn.AddClone(u, 1, sim.One)
	}
	// World parity: clones on the 0-world hear W₀; the 1-world hears W₁.
	parity := func(c CloneID) int {
		if wSet.Contains(c.Orig) {
			return c.Side
		}
		if f2.Contains(c.Orig) {
			return 1
		}
		return 0 // z and F¹ live in the 0-world
	}
	err := cn.Wire(func(recv CloneID, sender graph.NodeID) (int, bool) {
		if wSet.Contains(sender) {
			return parity(recv), true
		}
		return 0, true // single copies
	})
	if err != nil {
		return nil, err
	}
	scripts, err := cn.Run(rounds, factory)
	if err != nil {
		return nil, err
	}

	all := g.Nodes()
	mkInputs := func(def sim.Value, overrides map[graph.NodeID]sim.Value) map[graph.NodeID]sim.Value {
		in := make(map[graph.NodeID]sim.Value, len(all))
		for _, u := range all {
			in[u] = def
		}
		for u, v := range overrides {
			in[u] = v
		}
		return in
	}
	replaySet := func(s graph.Set) map[graph.NodeID]sim.Node {
		out := make(map[graph.NodeID]sim.Node, s.Len())
		for u := range s.All() {
			out[u] = &ReplayNode{Me: u, Script: scripts[CloneID{Orig: u, Side: 0}]}
		}
		return out
	}

	f1z := f1
	f1z.Add(z)
	return &Attack{
		Rounds: rounds,
		Executions: []AttackExecution{
			{
				Name:               "E1",
				Faulty:             f2,
				Inputs:             mkInputs(sim.Zero, nil),
				Byzantine:          replaySet(f2),
				ExpectHonestOutput: valuePtr(sim.Zero),
			},
			{
				Name:      "E2",
				Faulty:    f1,
				Inputs:    mkInputs(sim.One, map[graph.NodeID]sim.Value{z: sim.Zero}),
				Byzantine: replaySet(f1),
			},
			{
				Name:               "E3",
				Faulty:             f1z,
				Inputs:             mkInputs(sim.One, nil),
				Byzantine:          replaySet(f1z),
				ExpectHonestOutput: valuePtr(sim.One),
			},
		},
	}, nil
}

// CutAttack builds the Lemma A.2 construction for a vertex cut C of size at
// most ⌊3f/2⌋ separating A from B under the local broadcast model
// (Figure 3). In E2, side A is expected to decide 0 while side B decides 1.
func CutAttack(g *graph.Graph, f int, aSet, bSet, cut graph.Set, rounds int, factory HonestFactory) (*Attack, error) {
	if f < 1 {
		return nil, fmt.Errorf("adversary: cut attack needs f >= 1")
	}
	if cut.Len() > 3*f/2 {
		return nil, fmt.Errorf("adversary: cut size %d exceeds ⌊3f/2⌋ = %d", cut.Len(), 3*f/2)
	}
	if aSet.Len() == 0 || bSet.Len() == 0 {
		return nil, fmt.Errorf("adversary: cut attack needs non-empty sides")
	}
	cs := cut.Slice()
	parts := splitSlice(cs, f/2, f/2, len(cs))
	c1, c2, c3 := graph.NewSet(parts[0]...), graph.NewSet(parts[1]...), graph.NewSet(parts[2]...)
	if c3.Len() > (f+1)/2 {
		return nil, fmt.Errorf("adversary: cut partition failed: |C3|=%d > ⌈f/2⌉", c3.Len())
	}

	cn := NewCloneNet(g)
	for u := range aSet.All() {
		cn.AddClone(u, 0, sim.Zero)
		cn.AddClone(u, 1, sim.One)
	}
	for u := range bSet.All() {
		cn.AddClone(u, 0, sim.Zero)
		cn.AddClone(u, 1, sim.One)
	}
	for u := range c1.All() {
		cn.AddClone(u, 0, sim.Zero)
	}
	for u := range c2.All() {
		cn.AddClone(u, 0, sim.One)
	}
	for u := range c3.All() {
		cn.AddClone(u, 0, sim.One)
	}
	// Which side of A (resp. B) each receiver hears.
	aSide := func(c CloneID) int {
		switch {
		case aSet.Contains(c.Orig):
			return c.Side
		case bSet.Contains(c.Orig):
			return c.Side // B clones never hear A (no A–B edges)
		case c3.Contains(c.Orig):
			return 1
		default: // C1, C2
			return 0
		}
	}
	bSide := func(c CloneID) int {
		switch {
		case bSet.Contains(c.Orig):
			return c.Side
		case aSet.Contains(c.Orig):
			return c.Side
		case c1.Contains(c.Orig):
			return 0
		default: // C2, C3
			return 1
		}
	}
	err := cn.Wire(func(recv CloneID, sender graph.NodeID) (int, bool) {
		switch {
		case aSet.Contains(sender):
			return aSide(recv), true
		case bSet.Contains(sender):
			return bSide(recv), true
		default:
			return 0, true // cut members are single copies
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
	mkInputs := func(def sim.Value, zeroSide graph.Set) map[graph.NodeID]sim.Value {
		in := make(map[graph.NodeID]sim.Value, len(all))
		for _, u := range all {
			in[u] = def
		}
		for u := range zeroSide.All() {
			in[u] = sim.Zero
		}
		return in
	}
	replaySet := func(sets ...graph.Set) (graph.Set, map[graph.NodeID]sim.Node) {
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

	f1, b1 := replaySet(c2, c3)
	f2, b2 := replaySet(c1, c3)
	f3, b3 := replaySet(c1, c2)
	return &Attack{
		Rounds: rounds,
		Executions: []AttackExecution{
			{
				Name:               "E1",
				Faulty:             f1,
				Inputs:             mkInputs(sim.Zero, 0),
				Byzantine:          b1,
				ExpectHonestOutput: valuePtr(sim.Zero),
			},
			{
				Name:      "E2",
				Faulty:    f2,
				Inputs:    mkInputs(sim.One, aSet),
				Byzantine: b2,
			},
			{
				Name:               "E3",
				Faulty:             f3,
				Inputs:             mkInputs(sim.One, 0),
				Byzantine:          b3,
				ExpectHonestOutput: valuePtr(sim.One),
			},
		},
	}, nil
}
