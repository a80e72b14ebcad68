// Package kit is what the per-layer probes share: the command-line
// protocol they speak with the benchmark driver, a repeat-and-take-the-
// median timer, and a sim.Node wrapper that times every Step from outside
// the node.
//
// A probe is a main package under probes/<layer>. The driver builds it and
// runs it as a child process with -workload and -seed; the probe prepares
// that workload exactly as the driver does, measures its layer through the
// layer's exported functions on the workload's own shapes, and prints one
// JSON object: its metrics by full name, or the reason its self-check
// failed. Probes may import any internal package; when a refactor breaks
// one, only that layer's numbers are lost.
package kit

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lbcast/benchmark/workload"
	"lbcast/internal/adversary"
	"lbcast/internal/core"
	"lbcast/internal/eval"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// Probe is one probe run: the prepared workload, its primary shape, and
// the metrics reported so far.
type Probe struct {
	// Layer is the module the probe measures; metric names are prefixed
	// with it.
	Layer string
	// In is the workload, prepared from the same seed the driver used.
	In *workload.Instance
	// Shapes are the workload's representative configurations; Shape is
	// the first of them and G its graph.
	Shapes []workload.Shape
	Shape  workload.Shape
	G      *graph.Graph

	metrics map[string]float64
	// ops is how many operations Ops replays, fixed by its first call.
	ops int
}

// Report records metric (named without the layer prefix).
func (p *Probe) Report(metric string, v float64) {
	p.metrics[p.Layer+"."+metric] = v
}

// output is the JSON object a probe prints.
type output struct {
	Metrics map[string]float64 `json:"metrics"`
	Error   string             `json:"error,omitempty"`
}

// Run is a probe's main: it parses the driver's flags, generates the
// workload (and, when the probe replays operations, builds the state they
// run against), calls measure, and prints the result. A measure error is
// the probe's failed self-check; it is reported in place of numbers.
func Run(layer string, withOps bool, measure func(p *Probe) error) {
	name := flag.String("workload", "", "workload whose inputs the probe measures on")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()
	out := output{Metrics: map[string]float64{}}
	err := func() error {
		make := workload.Generate
		if withOps {
			make = workload.Prepare
		}
		in, err := make(*name, *seed)
		if err != nil {
			return err
		}
		defer in.Close()
		if in.InFlight == 1 {
			// As the driver measures a single caller: on one P.
			runtime.GOMAXPROCS(1)
		}
		if len(in.Shapes) == 0 {
			return fmt.Errorf("workload %s has no shapes", *name)
		}
		g, err := in.Shapes[0].Graph()
		if err != nil {
			return err
		}
		p := &Probe{Layer: layer, In: in, Shapes: in.Shapes, Shape: in.Shapes[0], G: g, metrics: out.Metrics}
		return measure(p)
	}()
	if err != nil {
		out = output{Error: err.Error()}
	}
	b, merr := json.Marshal(out)
	if merr != nil {
		fmt.Fprintln(os.Stderr, merr)
		os.Exit(2)
	}
	fmt.Println(string(b))
}

// Repeat calls sample repeatedly and returns the median of the values it
// returned: three calls unless they take more than 150 ms together, then
// more until about 30 ms have passed (2,000 calls at most). A probe has a
// fraction of a second for all its metrics; the median keeps a scheduling
// hiccup out of a short sample.
func Repeat(sample func() float64) float64 {
	const (
		budget    = 30 * time.Millisecond
		slowLimit = 150 * time.Millisecond
	)
	var v []float64
	start := time.Now()
	for {
		v = append(v, sample())
		spent := time.Since(start)
		if (len(v) >= 3 || spent > slowLimit) && (spent >= budget || len(v) >= 2000) {
			break
		}
	}
	sort.Float64s(v)
	return v[len(v)/2]
}

// Time returns the median duration of a call of fn in nanoseconds, sampled
// as Repeat does.
func Time(fn func()) float64 {
	return Repeat(func() float64 {
		t0 := time.Now()
		fn()
		return float64(time.Since(t0).Nanoseconds())
	})
}

// Ops replays operations of the workload's cycle from its start, at its
// closed-loop concurrency, and returns the decisions they produced: the
// first 64 requests of a serve workload; as many operations of a single
// caller as fit in about 150 ms (at least one), and the same ones on every
// later call. Call it once to warm the program up and again between two
// counter readings.
func (p *Probe) Ops() (decisions int, err error) {
	in := p.In
	limit, budget := p.ops, time.Duration(0)
	if limit == 0 {
		limit = min(in.CycleLen, 64)
		if in.InFlight == 1 {
			budget = 150 * time.Millisecond
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var next atomic.Int64
	start := time.Now()
	for w := 0; w < min(in.InFlight, limit); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= limit || (budget > 0 && i > 0 && time.Since(start) > budget) {
					return
				}
				r := in.Do(context.Background(), i)
				mu.Lock()
				p.ops = max(p.ops, i+1)
				decisions += r.Decisions
				if r.Failed && err == nil {
					err = fmt.Errorf("operation %d failed: %s", i, r.Detail)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err == nil && decisions == 0 {
		err = fmt.Errorf("the replayed operations produced no decision")
	}
	return decisions, err
}

// TimedNode wraps a sim.Node and accounts the wall time of its Step calls,
// in total and per round. It forwards Decision and IgnoresInbox, so the
// engine treats the wrapped node exactly as it would the bare one.
type TimedNode struct {
	Inner sim.Node
	// Total is the summed Step time; Calls the number of Steps.
	Total time.Duration
	Calls int
	// ByRound[r] is the Step time of round r.
	ByRound []time.Duration
}

// ID implements sim.Node.
func (t *TimedNode) ID() graph.NodeID { return t.Inner.ID() }

// Step implements sim.Node.
func (t *TimedNode) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	t0 := time.Now()
	out := t.Inner.Step(round, inbox)
	d := time.Since(t0)
	t.Total += d
	t.Calls++
	for len(t.ByRound) <= round {
		t.ByRound = append(t.ByRound, 0)
	}
	t.ByRound[round] += d
	return out
}

// Decision implements sim.Decider; a wrapped node that cannot decide (an
// adversary) never does.
func (t *TimedNode) Decision() (sim.Value, bool) {
	if d, ok := t.Inner.(sim.Decider); ok {
		return d.Decision()
	}
	return 0, false
}

// IgnoresInbox implements sim.InboxIgnorer by forwarding.
func (t *TimedNode) IgnoresInbox() bool {
	ig, ok := t.Inner.(sim.InboxIgnorer)
	return ok && ig.IgnoresInbox()
}

// Reset clears the accounting.
func (t *TimedNode) Reset() {
	t.Total, t.Calls = 0, 0
	t.ByRound = t.ByRound[:0]
}

// WrapAll wraps every node.
func WrapAll(nodes []sim.Node) ([]sim.Node, []*TimedNode) {
	wrapped := make([]sim.Node, len(nodes))
	timed := make([]*TimedNode, len(nodes))
	for i, nd := range nodes {
		timed[i] = &TimedNode{Inner: nd}
		wrapped[i] = timed[i]
	}
	return wrapped, timed
}

// NewFault builds the adversary a workload fault describes, as the system
// under test does for a request or a trial.
func NewFault(g *graph.Graph, f workload.Fault) (sim.Node, error) {
	u := graph.NodeID(f.Node)
	phaseLen := core.PhaseRounds(g.N())
	switch f.Strategy {
	case "silent":
		return &adversary.SilentNode{Me: u}, nil
	case "tamper":
		return adversary.NewTamper(g, u, phaseLen, f.Seed), nil
	case "equivocate":
		return &adversary.EquivocatorNode{G: g, Me: u, PhaseLen: phaseLen}, nil
	case "forge":
		return adversary.NewForger(g, u, phaseLen, f.Seed), nil
	}
	return nil, fmt.Errorf("unknown fault strategy %q", f.Strategy)
}

// Engine builds a round engine over nodes on g's static topology, the way
// eval.Session does, and steps it until done reports true or the budget is
// spent (the whole budget when done is nil). It returns the engine, closed,
// and the wall time of the run.
func Engine(g *graph.Graph, nodes []sim.Node, parallel bool, budget int, done func(*sim.Engine) bool) (*sim.Engine, time.Duration, error) {
	eng, err := sim.NewEngine(sim.Config{
		Topology: sim.GraphTopology{G: g},
		Model:    sim.LocalBroadcast,
		Parallel: parallel,
	}, nodes)
	if err != nil {
		return nil, 0, err
	}
	defer eng.Close()
	t0 := time.Now()
	for r := 0; r < budget; r++ {
		eng.Step()
		if done != nil && done(eng) {
			break
		}
	}
	return eng, time.Since(t0), nil
}

// World is a shape assembled into protocol nodes with the layers' public
// constructors, wired the way eval.Session wires a run of that shape.
type World struct {
	Nodes  []sim.Node
	Honest graph.Set
	// Inputs are the honest inputs; Budget the algorithm's round budget.
	Inputs map[graph.NodeID]sim.Value
	Budget int
}

// Decided is the termination predicate of a World's run.
func (w *World) Decided(eng *sim.Engine) bool { return eng.AllDecided(w.Honest) }

// Assemble builds the shape's nodes over the shared analysis topo. With
// replay set, Algorithm 1 nodes engage the compiled plans exactly as a
// Session would: the benign plan wholesale (phantom transmissions) without
// faults, a masked plan when every fault is silent, delta replay otherwise.
// Without it every node floods dynamically — the reference world.
// Algorithm 2 has no plans and is always dynamic.
func Assemble(topo *graph.Analysis, sh workload.Shape, replay bool) (*World, error) {
	g := topo.Graph()
	n := g.N()
	w := &World{Nodes: make([]sim.Node, n), Honest: graph.NewSet(), Inputs: map[graph.NodeID]sim.Value{}}
	byz := graph.NewSet()
	allSilent := len(sh.Faults) > 0
	for _, f := range sh.Faults {
		nd, err := NewFault(g, f)
		if err != nil {
			return nil, err
		}
		w.Nodes[f.Node] = nd
		byz.Add(graph.NodeID(f.Node))
		allSilent = allSilent && f.Strategy == "silent"
	}
	var rs *core.ReplayShared
	var dp *flood.DeltaPlan
	if replay && sh.Algorithm == 1 {
		switch {
		case len(sh.Faults) == 0:
			rs = core.NewReplayShared(flood.PlanFor(topo))
			rs.SetPhantom(true)
		case allSilent:
			rs = core.NewReplayShared(flood.MaskedPlanFor(topo, byz))
			rs.SetPhantom(true)
		default:
			dp = flood.DeltaPlanFor(topo, byz)
		}
	}
	for v := 0; v < n; v++ {
		u := graph.NodeID(v)
		if byz.Contains(u) {
			continue
		}
		in := sh.Inputs[v]
		w.Honest.Add(u)
		w.Inputs[u] = in
		if sh.Algorithm == 2 {
			w.Nodes[v] = core.NewEfficientNodeShared(topo, sh.F, u, in, nil)
			continue
		}
		pn := core.NewAlgo1NodeShared(topo, sh.F, u, in, nil)
		pn.EnableEarlyDecision()
		switch {
		case rs != nil:
			pn.UseReplay(rs)
		case dp != nil:
			pn.UseDeltaReplay(dp)
		}
		w.Nodes[v] = pn
	}
	w.Budget = core.Algo1Rounds(n, sh.F)
	if sh.Algorithm == 2 {
		w.Budget = core.EfficientRounds(n)
	}
	return w, nil
}

// Spec is the eval.Spec of the shape: what a Session of it is made from.
// Every call builds fresh adversaries, which carry state from run to run.
func Spec(g *graph.Graph, sh workload.Shape) (eval.Spec, error) {
	spec := eval.Spec{G: g, F: sh.F, Algorithm: eval.Algo1, InputSlab: sh.Inputs}
	if sh.Algorithm == 2 {
		spec.Algorithm = eval.Algo2
	}
	if len(sh.Faults) > 0 {
		spec.Byzantine = map[graph.NodeID]sim.Node{}
		for _, f := range sh.Faults {
			nd, err := NewFault(g, f)
			if err != nil {
				return spec, err
			}
			spec.Byzantine[graph.NodeID(f.Node)] = nd
		}
	}
	return spec, nil
}

// Benign returns the shape without its faults and on Algorithm 1: the
// configuration the replay tiers and the vector node are measured on.
func Benign(sh workload.Shape) workload.Shape {
	sh.Faults, sh.Algorithm = nil, 1
	return sh
}

// SameDecisions checks an assembled run against the Session's: every
// honest decision and the round count must match, or the probe's numbers
// describe some other execution than the one users get.
func SameDecisions(eng *sim.Engine, want map[graph.NodeID]sim.Value, wantRounds int) error {
	if got := eng.Metrics().Rounds; got != wantRounds {
		return fmt.Errorf("assembled engine ran %d rounds, the Session %d", got, wantRounds)
	}
	got := eng.Decisions()
	for u, v := range want {
		if gv, ok := got[u]; !ok || gv != v {
			return fmt.Errorf("assembled engine decided %v at node %d (decided=%t), the Session %v", gv, u, ok, v)
		}
	}
	return nil
}
