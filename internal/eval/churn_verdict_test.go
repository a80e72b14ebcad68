package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/check"
	"lbcast/internal/faultinject"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
)

// residual is an independent model of an injected world: which nodes and
// links are down. It is a faultinject.Mask, so the same cursor that drives
// a run drives it, but it shares nothing else with the run's masks.
type residual struct {
	g        *graph.Graph
	nodeDown []bool
	edgeDown map[graph.Edge]bool
}

func (r *residual) SetNodeDown(u graph.NodeID, down bool) { r.nodeDown[u] = down }

func (r *residual) SetEdgeDown(u, v graph.NodeID, down bool) {
	if r.g.HasEdge(u, v) {
		r.edgeDown[graph.Edge{U: u, V: v}.Normalize()] = down
	}
}

// up reports whether the link {u, v} is usable: both ends up, link up.
func (r *residual) up(u, v graph.NodeID) bool {
	return !r.nodeDown[u] && !r.nodeDown[v] && !r.edgeDown[graph.Edge{U: u, V: v}.Normalize()]
}

// connectedWithout reports whether the up-nodes outside cut form one
// connected component.
func (r *residual) connectedWithout(cut uint) bool {
	n := r.g.N()
	start := -1
	alive := 0
	for u := 0; u < n; u++ {
		if !r.nodeDown[u] && cut&(1<<u) == 0 {
			alive++
			if start < 0 {
				start = u
			}
		}
	}
	if alive == 0 {
		return true
	}
	seen := make([]bool, n)
	seen[start] = true
	stack := []int{start}
	reached := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := 0; v < n; v++ {
			if seen[v] || cut&(1<<v) != 0 || !r.g.HasEdge(graph.NodeID(u), graph.NodeID(v)) || !r.up(graph.NodeID(u), graph.NodeID(v)) {
				continue
			}
			seen[v] = true
			reached++
			stack = append(stack, v)
		}
	}
	return reached == alive
}

// connectivity is the vertex connectivity of the residual graph by brute
// force over vertex cuts: the smallest cut of up-nodes that disconnects
// the rest, m−1 for a complete residual graph on m nodes, and 0 when it is
// disconnected or has fewer than two nodes.
func (r *residual) connectivity() int {
	n := r.g.N()
	var upSet []int
	for u := 0; u < n; u++ {
		if !r.nodeDown[u] {
			upSet = append(upSet, u)
		}
	}
	m := len(upSet)
	if m <= 1 {
		return 0
	}
	best := m - 1
	for mask := 0; mask < 1<<m; mask++ {
		var cut uint
		size := 0
		for i, u := range upSet {
			if mask&(1<<i) != 0 {
				cut |= 1 << u
				size++
			}
		}
		if size < best && size <= m-2 && !r.connectedWithout(cut) {
			best = size
		}
	}
	return best
}

// minDegree is the smallest number of usable links at an up-node.
func (r *residual) minDegree() int {
	n := r.g.N()
	best := -1
	for u := 0; u < n; u++ {
		if r.nodeDown[u] {
			continue
		}
		d := 0
		for v := 0; v < n; v++ {
			if u != v && r.g.HasEdge(graph.NodeID(u), graph.NodeID(v)) && r.up(graph.NodeID(u), graph.NodeID(v)) {
				d++
			}
		}
		if best < 0 || d < best {
			best = d
		}
	}
	return max(best, 0)
}

// TestChurnVerdictsMatchRecomputation checks the degraded verdict class
// against an independent model. On seeded random graphs under schedules
// from faultinject's generators, each run's MinConnectivity must equal the
// brute-force vertex connectivity minimized over the masked epochs the run
// reached (the boundaries of the rounds it executed), DegradedConnectivity
// must be exactly "some epoch fell below ⌊3f/2⌋+1 or minimum degree 2f",
// and a schedule that never falls below both thresholds must yield no
// degraded verdict. Both classes must occur, so neither check is vacuous.
func TestChurnVerdictsMatchRecomputation(t *testing.T) {
	degraded, clean := 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		n := 6 + int(seed)%3
		f := 1 + int(seed)%2
		g, err := gen.RandomWithMinConnectivity(n, 2*f, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		phaseLen := lbPhaseRounds(n)
		rng := rand.New(adversary.NewFastSource(seed * 7919))
		start := rng.Intn(phaseLen)
		events := 1 + rng.Intn(3)
		for _, kind := range []string{"churn", "partition", "burst"} {
			var sched *faultinject.Schedule
			switch kind {
			case "churn":
				sched = faultinject.Churn(g, rng, events, start, phaseLen, start+phaseLen)
			case "partition":
				sched = faultinject.Partition(g, rng, start, start+phaseLen)
			default:
				sched = faultinject.Burst(g, rng, events, start, phaseLen)
			}
			name := fmt.Sprintf("seed%d-%s", seed, kind)
			out, err := Run(Spec{G: g, F: f, Algorithm: Algo1, Inputs: churnInputs(n, int(seed)), Churn: sched})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			world := &residual{g: g, nodeDown: make([]bool, n), edgeDown: map[graph.Edge]bool{}}
			minConn, minDeg := world.connectivity(), world.minDegree()
			applied := 0
			cursor := sched.Cursor()
			for r := 0; r < out.Rounds; r++ {
				if cursor.Apply(g, r, world) == 0 {
					continue
				}
				applied++
				minConn = min(minConn, world.connectivity())
				minDeg = min(minDeg, world.minDegree())
			}
			below := minConn < check.LocalBroadcastConnectivity(f) || minDeg < check.LocalBroadcastDegree(f)
			if out.MinConnectivity != minConn {
				t.Errorf("%s: MinConnectivity %d, recomputed %d over %d epochs", name, out.MinConnectivity, minConn, applied)
			}
			if out.DegradedConnectivity != below {
				t.Errorf("%s: DegradedConnectivity %v, recomputed %v (min connectivity %d, min degree %d, f=%d)",
					name, out.DegradedConnectivity, below, minConn, minDeg, f)
			}
			if below {
				degraded++
			} else {
				clean++
				if out.DegradedConnectivity {
					t.Errorf("%s: schedule never fell below the thresholds but the run was classified degraded", name)
				}
			}
		}
	}
	if degraded == 0 || clean == 0 {
		t.Fatalf("generated schedules cover one verdict class only: %d degraded, %d clean", degraded, clean)
	}
	t.Logf("%d degraded, %d clean", degraded, clean)
}
