// Command flood is the per-layer probe of internal/flood: plan, masked
// plan and delta compilation; one flooding phase of all n nodes through
// each of the three delivery paths (wholesale replay, the dynamic rules,
// delta replay around one tamperer); the phase-end disjoint-path queries;
// and the plan counters' deltas over the workload's own operations.
package main

import (
	"fmt"

	"lbcast/benchmark/probes/kit"
	"lbcast/internal/adversary"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

func main() { kit.Run("flood", true, measure) }

// floodNode floods one value for one phase with the dynamic rules, or with
// delta replay when dp is set: what a phase node's flooding step does,
// without the protocol around it.
type floodNode struct {
	id   graph.NodeID
	f    *flood.Flooder
	dp   *flood.DeltaPlan
	body flood.Body
}

func (n *floodNode) ID() graph.NodeID { return n.id }

func (n *floodNode) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	if round == 0 {
		return n.f.Start(n.body)
	}
	var out []sim.Outgoing
	if n.dp != nil {
		out = n.f.DeliverDelta(n.dp, round, inbox)
	} else {
		out = n.f.Deliver(inbox)
	}
	if round == 1 {
		// The default message stands in for neighbours that stayed silent
		// in the initiation round.
		out = n.f.AppendMissing(out, func(graph.NodeID) flood.Body { return flood.CanonValueBody(sim.DefaultValue) })
	}
	return out
}

func measure(p *kit.Probe) error {
	g, sh := p.G, p.Shape
	n := g.N()
	faulty := graph.NodeID(n / 2)
	if len(sh.Faults) > 0 {
		faulty = graph.NodeID(sh.Faults[0].Node)
	}
	fset := graph.NewSet(faulty)

	var plan *flood.Plan
	p.Report("plan_compile_ms", kit.Time(func() { plan = flood.CompilePlan(g) })/1e6)
	receipts := 0
	for v := 0; v < n; v++ {
		receipts += plan.NodeReceipts(graph.NodeID(v))
	}
	p.Report("plan_receipts", float64(receipts))
	p.Report("masked_compile_ms", kit.Time(func() { _ = flood.CompileMaskedPlan(g, fset) })/1e6)
	var dp *flood.DeltaPlan
	p.Report("delta_compile_ms", kit.Time(func() { dp = flood.CompileDelta(plan, fset) })/1e6)

	bodies := make([]flood.Body, n)
	for u := range bodies {
		bodies[u] = flood.CanonValueBody(sh.Inputs[u])
	}

	// Wholesale replay: every node installs its scheduled arrivals round
	// by round into its planned store.
	stores := make([]*flood.ReceiptStore, n)
	for v := range stores {
		stores[v] = plan.PlannedStore(graph.NodeID(v), flood.NewIdent())
	}
	var out []sim.Outgoing
	p.Report("replay_phase_us", kit.Time(func() {
		for v := range stores {
			stores[v].ResetPlanned()
		}
		for r := 0; r < plan.Rounds(); r++ {
			for v := range stores {
				out = plan.ReplayRound(graph.NodeID(v), r, bodies, stores[v], out[:0])
			}
		}
	})/1e3)
	for v := range stores {
		if got, want := stores[v].Len(), plan.NodeReceipts(graph.NodeID(v)); got != want {
			return fmt.Errorf("replay installed %d receipts at node %d, the plan schedules %d", got, v, want)
		}
	}

	// The same phase through n dynamic flooders, and through delta replay
	// with one tamperer: the summed Step time of the flooding nodes. The
	// engine's routing between the steps belongs to sim.
	var flooders []*flood.Flooder
	var runErr error
	phase := func(dp *flood.DeltaPlan) float64 {
		return kit.Repeat(func() float64 {
			nodes := make([]sim.Node, n)
			flooders = make([]*flood.Flooder, n)
			for v := 0; v < n; v++ {
				id := graph.NodeID(v)
				if dp != nil && id == faulty {
					nodes[v] = adversary.NewTamper(g, id, flood.Rounds(n), 1)
					continue
				}
				flooders[v] = flood.New(g, id)
				nodes[v] = &floodNode{id: id, f: flooders[v], dp: dp, body: bodies[v]}
			}
			wrapped, timed := kit.WrapAll(nodes)
			if _, _, err := kit.Engine(g, wrapped, true, flood.Rounds(n), nil); err != nil {
				runErr = err
			}
			var sum float64
			for v, t := range timed {
				if flooders[v] != nil {
					sum += float64(t.Total.Nanoseconds())
				}
			}
			return sum
		})
	}
	p.Report("dynamic_phase_us", phase(nil)/1e3)
	if runErr != nil {
		return runErr
	}
	for v, f := range flooders {
		if got, want := f.Store().Len(), plan.NodeReceipts(graph.NodeID(v)); got != want {
			return fmt.Errorf("dynamic flooding left %d receipts at node %d, the plan schedules %d", got, v, want)
		}
	}

	// Phase-end queries over the full dynamic stores: was each origin's
	// value received along f+1 internally disjoint paths (the unanimity
	// predicate every Algorithm 1 phase evaluates).
	p.Report("query_us", kit.Time(func() {
		for v, f := range flooders {
			for u := 0; u < n; u++ {
				if u == v {
					continue
				}
				fil := flood.Filter{Origins: graph.NewSet(graph.NodeID(u)), Body: flood.ValueKeyID(sh.Inputs[u])}
				_ = flood.ReceivedOnDisjointPaths(f.Store(), fil, sh.F+1, flood.InternallyDisjoint)
			}
		}
	})/1e3)

	p.Report("delta_phase_us", phase(dp)/1e3)
	if runErr != nil {
		return runErr
	}

	// The plan counters over the workload's own operations, after warm-up.
	if _, err := p.Ops(); err != nil {
		return err
	}
	before := flood.ReadPlanStats()
	decisions, err := p.Ops()
	if err != nil {
		return err
	}
	after := flood.ReadPlanStats()
	per := 1000 / float64(decisions)
	replay := float64(after.ReplaySessions - before.ReplaySessions)
	deltas := float64(after.DeltaReplaySessions - before.DeltaReplaySessions)
	dynamic := float64(after.DynamicSessions - before.DynamicSessions)
	p.Report("plan_compiles", float64(after.Compiles-before.Compiles)*per)
	p.Report("masked_compiles", float64(after.MaskedCompiles-before.MaskedCompiles)*per)
	p.Report("replay_sessions", replay*per)
	p.Report("delta_replays", deltas*per)
	p.Report("dynamic_sessions", dynamic*per)
	// Useful over attempted flooding sessions. Algorithm 2 floods outside
	// the plan machinery altogether: nothing attempted, nothing hit.
	hit := 0.0
	if total := replay + deltas + dynamic; total > 0 {
		hit = (replay + deltas) / total
	}
	p.Report("replay_hit_rate", hit)
	return nil
}
