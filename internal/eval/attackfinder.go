package eval

import (
	"fmt"

	"lbcast/internal/adversary"
	"lbcast/internal/check"
	"lbcast/internal/combin"
	"lbcast/internal/core"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// FoundAttack is an automatically constructed impossibility witness for a
// sub-threshold graph.
type FoundAttack struct {
	// Lemma names the paper lemma whose construction was used.
	Lemma string
	// Reason describes the violated condition.
	Reason string
	// Attack is the ready-to-run three-execution attack.
	Attack *adversary.Attack
	// Algorithm is the honest protocol the attack was built against.
	Algorithm Algorithm
	// F, T are the fault bounds used.
	F, T int
}

// FindAttack inspects g under fault bounds (f, t) and, if the paper's
// tight conditions fail, automatically constructs the matching lemma
// attack (A.1/A.2 for t = 0, D.1/D.2 for t > 0). It returns an error when
// the graph satisfies the conditions — no attack can exist then (that is
// the sufficiency direction).
func FindAttack(g *graph.Graph, f, t int) (*FoundAttack, error) {
	if f < 1 {
		return nil, fmt.Errorf("eval: attacks need f >= 1")
	}
	if t < 0 || t > f {
		return nil, fmt.Errorf("eval: need 0 <= t <= f")
	}
	if t == 0 {
		return findLocalBroadcastAttack(g, f)
	}
	return findHybridAttack(g, f, t)
}

func findLocalBroadcastAttack(g *graph.Graph, f int) (*FoundAttack, error) {
	rep := check.LocalBroadcast(g, f)
	if rep.OK {
		return nil, fmt.Errorf("eval: graph satisfies the Theorem 4.1 conditions for f=%d; Theorem 5.1 guarantees consensus", f)
	}
	rounds := core.Algo1Rounds(g.N(), f)
	factory := func(u graph.NodeID, in sim.Value) sim.Node { return core.NewAlgo1Node(g, f, u, in) }

	// Prefer the degree attack when some node is below 2f.
	if z, deg := minDegreeNode(g); deg < 2*f && deg >= 1 {
		atk, err := adversary.DegreeAttack(g, f, z, rounds, factory)
		if err == nil {
			return &FoundAttack{
				Lemma:     "A.1",
				Reason:    fmt.Sprintf("node %d has degree %d < 2f = %d", z, deg, 2*f),
				Attack:    atk,
				Algorithm: Algo1,
				F:         f,
			}, nil
		}
	}
	// Otherwise the connectivity condition fails: extract a minimum cut.
	part, ok := g.MinVertexCut()
	if !ok || part.C.Len() > 3*f/2 {
		return nil, fmt.Errorf("eval: no attackable witness found (cut %v)", part.C)
	}
	atk, err := adversary.CutAttack(g, f, part.A, part.B, part.C, rounds, factory)
	if err != nil {
		return nil, fmt.Errorf("eval: cut attack: %w", err)
	}
	return &FoundAttack{
		Lemma:     "A.2",
		Reason:    fmt.Sprintf("vertex cut %v of size %d <= ⌊3f/2⌋ = %d", part.C, part.C.Len(), 3*f/2),
		Attack:    atk,
		Algorithm: Algo1,
		F:         f,
	}, nil
}

func findHybridAttack(g *graph.Graph, f, t int) (*FoundAttack, error) {
	rep := check.Hybrid(g, f, t)
	if rep.OK {
		return nil, fmt.Errorf("eval: graph satisfies the Theorem 6.1 conditions for f=%d t=%d", f, t)
	}
	rounds := core.HybridRounds(g.N(), f, t)
	factory := func(u graph.NodeID, in sim.Value) sim.Node { return core.NewHybridNode(g, f, t, u, in) }

	// Condition (iii): some S with |S| <= t has at most 2f neighbors.
	if s, nbrs, found := smallNeighborhoodSet(g, t, 2*f); found {
		atk, err := adversary.HybridDegreeAttack(g, f, t, s, rounds, factory)
		if err == nil {
			return &FoundAttack{
				Lemma:     "D.1",
				Reason:    fmt.Sprintf("set %v has %d <= 2f = %d neighbors", s, nbrs, 2*f),
				Attack:    atk,
				Algorithm: Algo3,
				F:         f,
				T:         t,
			}, nil
		}
	}
	// Condition (i): connectivity below ⌊3(f−t)/2⌋+2t+1.
	part, ok := g.MinVertexCut()
	maxCut := 3*(f-t)/2 + 2*t
	if !ok || part.C.Len() > maxCut {
		return nil, fmt.Errorf("eval: no attackable hybrid witness found")
	}
	atk, err := adversary.HybridCutAttack(g, f, t, part.A, part.B, part.C, rounds, factory)
	if err != nil {
		return nil, fmt.Errorf("eval: hybrid cut attack: %w", err)
	}
	return &FoundAttack{
		Lemma:     "D.2",
		Reason:    fmt.Sprintf("vertex cut %v of size %d <= ⌊3(f-t)/2⌋+2t = %d", part.C, part.C.Len(), maxCut),
		Attack:    atk,
		Algorithm: Algo3,
		F:         f,
		T:         t,
	}, nil
}

// minDegreeNode returns a node of minimum degree.
func minDegreeNode(g *graph.Graph) (graph.NodeID, int) {
	best := graph.NodeID(0)
	bestDeg := g.Degree(0)
	for _, u := range g.Nodes() {
		if d := g.Degree(u); d < bestDeg {
			best, bestDeg = u, d
		}
	}
	return best, bestDeg
}

// smallNeighborhoodSet searches for a non-empty S with |S| <= maxSize
// whose neighborhood has at most bound nodes.
func smallNeighborhoodSet(g *graph.Graph, maxSize, bound int) (graph.Set, int, bool) {
	var found graph.Set
	nbrs := 0
	combin.SubsetsUpTo(g.Nodes(), maxSize, func(s graph.Set) bool {
		if s.Len() == 0 {
			return true
		}
		if n := len(g.SetNeighbors(s)); n <= bound && n >= 1 {
			found = s
			nbrs = n
			return false
		}
		return true
	})
	return found, nbrs, found != 0
}

// RunFoundAttack executes all three executions of a found attack and
// reports, per execution, whether the predicted violation occurred.
func RunFoundAttack(g *graph.Graph, fa *FoundAttack) (*Table, bool, error) {
	t := &Table{Header: []string{"exec", "faulty", "equivocators", "decisions", "verdict"}}
	violated := false
	for _, ex := range fa.Attack.Executions {
		res, err := RunAttackExecution(g, fa.F, fa.T, fa.Algorithm, ex, fa.Attack.Rounds)
		if err != nil {
			return nil, false, err
		}
		verdict := "consensus"
		if ex.ExpectHonestOutput != nil {
			for _, v := range res.Decisions {
				if v != *ex.ExpectHonestOutput {
					verdict = "VALIDITY VIOLATED"
					violated = true
					break
				}
			}
		} else if !res.Agreement {
			verdict = "AGREEMENT VIOLATED"
			violated = true
		}
		t.AddRow(ex.Name, ex.Faulty, ex.Equivocators, decisionsString(res.Decisions), verdict)
	}
	t.AddNote("lemma %s: %s", fa.Lemma, fa.Reason)
	return t, violated, nil
}
