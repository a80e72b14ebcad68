package flood

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// symbolicCompile is the reference compiler the path enumeration replaced:
// it runs the dynamic flooders of every relaying node symbolically over
// one shared arena, in the engine's canonical delivery order (ascending
// sender, FIFO within a sender's outbox, every transmission heard by all
// neighbours), with the default-message rule applied after each honest
// node's round-1 delivery. It returns the arena (not frozen) and the
// per-node schedules the dynamic session records.
func symbolicCompile(g *graph.Graph, silent graph.Set) (*graph.PathArena, []planSchedule) {
	n := g.N()
	arena := graph.NewPathArena(g)
	ident := NewIdent()
	sched := make([]planSchedule, n)
	flooders := make([]*Flooder, n)
	for u := 0; u < n; u++ {
		sched[u].roundOff = make([]int32, Rounds(n)+1)
		if !silent.Contains(graph.NodeID(u)) {
			flooders[u] = NewWithState(g, graph.NodeID(u), arena, ident)
		}
	}
	record := func(v, r int) {
		s := &sched[v]
		for _, rec := range flooders[v].Store().All()[len(s.pids):] {
			s.add(rec.PathID, arena.Parent(rec.PathID), rec.Origin)
		}
		s.roundOff[r+1] = int32(len(s.pids))
	}
	body := ValueBody{Value: sim.DefaultValue}
	defaultBody := func(graph.NodeID) Body { return CanonValueBody(sim.DefaultValue) }
	outs := make([][]sim.Outgoing, n)
	for u := 0; u < n; u++ {
		if flooders[u] != nil {
			outs[u] = flooders[u].Start(body)
			record(u, 0)
		}
	}
	inboxes := make([][]sim.Delivery, n)
	for r := 1; r < Rounds(n); r++ {
		for v := range inboxes {
			inboxes[v] = inboxes[v][:0]
		}
		for u := 0; u < n; u++ {
			for _, out := range outs[u] {
				for _, w := range g.AdjList(graph.NodeID(u)) {
					inboxes[w] = append(inboxes[w], sim.Delivery{From: graph.NodeID(u), Payload: out.Payload})
				}
			}
		}
		for v := 0; v < n; v++ {
			if flooders[v] == nil {
				continue
			}
			outs[v] = flooders[v].Deliver(inboxes[v])
			if r == 1 {
				outs[v] = flooders[v].AppendMissing(outs[v], defaultBody)
			}
			record(v, r)
		}
	}
	return arena, sched
}

// checkCompileMatchesSymbolic requires the compiled plan's arena and
// schedules to be the symbolic run's, PathID for PathID.
func checkCompileMatchesSymbolic(t *testing.T, g *graph.Graph, silent graph.Set) {
	t.Helper()
	var p *Plan
	if silent == 0 {
		p = CompilePlan(g)
	} else {
		p = CompileMaskedPlan(g, silent)
	}
	arena, sched := symbolicCompile(g, silent)
	if p.arena.Len() != arena.Len() {
		t.Fatalf("arena holds %d paths, symbolic run %d", p.arena.Len(), arena.Len())
	}
	for id := 0; id < arena.Len(); id++ {
		if got, want := p.arena.Path(graph.PathID(id)), arena.Path(graph.PathID(id)); !slices.Equal(got, want) {
			t.Fatalf("PathID %d: %v, symbolic run %v", id, got, want)
		}
	}
	for v := range sched {
		got, want := &p.sched[v], &sched[v]
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"pids", got.pids, want.pids},
			{"parents", got.parents, want.parents},
			{"origins", got.origins, want.origins},
			{"roundOff", got.roundOff, want.roundOff},
		} {
			if fmt.Sprint(f.got) != fmt.Sprint(f.want) {
				t.Fatalf("node %d %s:\ncompiled %v\nsymbolic %v", v, f.name, f.got, f.want)
			}
		}
	}
}

// TestCompileMatchesSymbolicFlood is the differential property over random
// graphs of 5–10 nodes: the path enumeration and the symbolic run of the
// dynamic flooders intern the same paths under the same PathIDs and record
// the same schedules, benign and under random silent masks. Graphs with
// more than maxPaths simple paths are redrawn: the symbolic run of a dense
// 10-node graph floods millions of messages.
func TestCompileMatchesSymbolicFlood(t *testing.T) {
	const maxPaths = 20000
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 30; i++ {
		n := 5 + i%6
		var g *graph.Graph
		for g == nil || simplePathsExceed(g, maxPaths) {
			var err error
			if g, err = gen.Random(n, 0.3+0.5*rng.Float64(), rng.Int63()); err != nil {
				t.Fatalf("graph %d: %v", i, err)
			}
		}
		silent := graph.NewSet()
		for u := 0; u < n; u++ {
			if rng.Intn(4) == 0 {
				silent.Add(graph.NodeID(u))
			}
		}
		t.Run(fmt.Sprintf("g%d-n%d/benign", i, n), func(t *testing.T) { checkCompileMatchesSymbolic(t, g, 0) })
		t.Run(fmt.Sprintf("g%d-n%d/mask%v", i, n, silent), func(t *testing.T) { checkCompileMatchesSymbolic(t, g, silent) })
	}
}

// simplePathsExceed reports whether g has more than limit simple paths,
// counting by depth-first search and stopping as soon as it knows.
func simplePathsExceed(g *graph.Graph, limit int) bool {
	count := 0
	on := make([]bool, g.N())
	var walk func(u graph.NodeID) bool
	walk = func(u graph.NodeID) bool {
		if count++; count > limit {
			return true
		}
		on[u] = true
		defer func() { on[u] = false }()
		for _, w := range g.AdjList(u) {
			if !on[w] && walk(w) {
				return true
			}
		}
		return false
	}
	for u := 0; u < g.N(); u++ {
		if walk(graph.NodeID(u)) {
			return true
		}
	}
	return false
}
