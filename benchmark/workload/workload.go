// Package workload generates the benchmark's seven seeded workloads and
// executes their operations against the system under test.
//
// A workload is prepared once per run (Prepare): the inputs are generated
// from the seed (Generate), the program state the workload needs is built
// (graphs, sessions, a server), and the expected outcome of every serve
// request is computed by an independent lbcast.Session. After that an
// Instance is a list of CycleLen operations addressed by index; Do(i)
// executes operation i mod CycleLen, checks its output, and reports what
// happened. The driver decides when and how concurrently operations run;
// the probes replay the same operations in their own process.
//
// The seed never changes how much work a cycle holds. Per-operation cost in
// this system varies severalfold with the drawn fault pattern, so a pool
// resampled per seed would put more sampling noise on a throughput number
// than any regression bound allows. Every workload therefore fixes the
// composition of its cycle (which classes of request, which Monte Carlo
// sweeps, which graph shapes) and lets the seed choose what does not move
// the cost: order, input bits, fault seeds, node labels. README.md lists
// the split per workload.
//
// This package and the driver above it import only lbcast,
// lbcast/internal/check, the Monte Carlo entry point of internal/eval and
// the constructor of internal/server, so that refactors below those
// surfaces cannot break the instrument that judges them.
package workload

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"

	"lbcast"
)

// Names lists the workloads in the order a full run executes them. The
// names are an API: issues and BENCHMARK.json cite them verbatim.
var Names = []string{
	"serve_benign",
	"serve_mixed",
	"mc_benign",
	"mc_faulty",
	"mc_churn",
	"algo2_session",
	"cold_start",
}

// Result reports one executed operation.
type Result struct {
	// Decisions is the number of correct completed decisions the operation
	// produced: 1 for a served request or a session run, the trial count
	// for a Monte Carlo sweep, 0 for a failed operation and for a request
	// that was meant to be rejected.
	Decisions int
	// Failed marks an operation that errored, was refused, returned a
	// non-OK verdict where the paper's conditions hold, answered with an
	// unexpected status, or mismatched its oracle.
	Failed bool
	// Detail describes the failure.
	Detail string
	// Verdict is the canonical text of the operation's outcome; the
	// verdicts of the first cycle, in index order, make the result digest.
	Verdict string
	// Refused marks a 429 or 503 answer (serve workloads).
	Refused bool
	// WaitMicros and BatchSize echo the response's batch block (serve
	// workloads, accepted requests only).
	WaitMicros int64
	BatchSize  int
}

// Fault plants one Byzantine strategy in a Shape.
type Fault struct {
	Node     int
	Strategy string
	Seed     int64
}

// Shape is one representative consensus configuration of a workload, in
// plain data, for the per-layer probes: they rebuild it with the internal
// constructors and measure one layer at a time on the workload's own
// inputs.
type Shape struct {
	// Label names the shape ("figure1b/benign", "c9+3", ...).
	Label string
	// N and Edges are the communication graph.
	N     int
	Edges []lbcast.Edge
	// F is the fault bound; Algorithm is 1 or 2.
	F         int
	Algorithm int
	// Inputs is the dense input vector.
	Inputs []lbcast.Value
	// Faults lists the Byzantine overrides (empty for benign shapes).
	Faults []Fault
}

// Graph builds the shape's graph.
func (s Shape) Graph() (*lbcast.Graph, error) {
	return lbcast.NewGraphFromEdges(s.N, s.Edges)
}

// MCPlan is the Monte Carlo configuration of an mc_* workload, for the
// probes.
type MCPlan struct {
	Trials    int
	FaultProb float64
	// Churn marks the fault-injection sweep (mc_churn).
	Churn bool
	// OpSeeds is the sweep seed of each operation of the cycle.
	OpSeeds []int64
}

// Instance is one prepared workload.
type Instance struct {
	// Name and Seed identify the workload and the seed it was made from.
	Name string
	Seed int64
	// OpenRate is the arrival rate of the open-loop phase in requests per
	// second; 0 for the single-caller workloads, which have no such phase.
	OpenRate int
	// InFlight is the closed-loop concurrency: 64 for the serve workloads,
	// 1 for a single caller.
	InFlight int
	// CycleLen is the number of distinct operations; operation indices
	// wrap around it. The set-up's warm-up pass executes one cycle.
	CycleLen int
	// Shapes are the workload's representative configurations (probes).
	Shapes []Shape
	// MC is set on the mc_* workloads.
	MC *MCPlan
	// Handler is the daemon's HTTP handler on the serve workloads
	// (/metrics is scraped through it); nil elsewhere.
	Handler http.Handler

	// start builds the state operations run against; Generate leaves it
	// uncalled.
	start func() error
	do    func(ctx context.Context, i int) Result
	stop  func() error
	// canon renders operation i's inputs as text (purity tests).
	canon func(i int) string
}

// Do executes operation i mod CycleLen and checks its output. It is safe
// for concurrent use on the serve workloads only.
func (in *Instance) Do(ctx context.Context, i int) Result {
	return in.do(ctx, i%in.CycleLen)
}

// Close releases what Prepare started (drains the server).
func (in *Instance) Close() error {
	if in.stop == nil {
		return nil
	}
	stop := in.stop
	in.stop = nil
	return stop()
}

// Inputs renders every operation's generated inputs as text, one line per
// operation: request bodies, edge lists, sweep seeds. Equal seeds give
// equal text; the tests hold the generators to that.
func (in *Instance) Inputs() string {
	var sb strings.Builder
	for i := 0; i < in.CycleLen; i++ {
		sb.WriteString(in.canon(i))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Generate makes the named workload's inputs from seed without building
// any program state: the instance describes the workload (Shapes, MC,
// Inputs) but cannot execute operations. Probes that only measure a layer
// on the workload's shapes stop here.
func Generate(name string, seed int64) (*Instance, error) {
	var (
		in  *Instance
		err error
	)
	switch name {
	case "serve_benign":
		in, err = generateServeBenign(seed)
	case "serve_mixed":
		in, err = generateServeMixed(seed)
	case "mc_benign":
		in = generateMC(seed, name, 64, 0.0625, false, 8)
	case "mc_faulty":
		in = generateMC(seed, name, 16, 0.5, false, 4)
	case "mc_churn":
		in = generateMC(seed, name, 16, 0, true, 8)
	case "algo2_session":
		in = generateAlgo2(seed)
	case "cold_start":
		in = generateColdStart(seed)
	default:
		return nil, fmt.Errorf("workload: unknown workload %q (want one of %s)", name, strings.Join(Names, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	in.Name, in.Seed = name, seed
	return in, nil
}

// Prepare generates the named workload's inputs from seed and builds the
// state its operations run against. The caller must Close the instance.
func Prepare(name string, seed int64) (*Instance, error) {
	in, err := Generate(name, seed)
	if err != nil {
		return nil, err
	}
	if err := in.start(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return in, nil
}

// rng derives the generator stream of one workload from the run seed. The
// workload name is mixed in so that two workloads never share a stream.
func rng(seed int64, name string) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	for _, c := range []byte(name) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// verdictOf renders a judged result canonically: the three properties, the
// rounds used of the budget, and every honest decision in node order.
func verdictOf(r lbcast.Result) string {
	nodes := make([]int, 0, len(r.Decisions))
	for u := range r.Decisions {
		nodes = append(nodes, int(u))
	}
	sort.Ints(nodes)
	var sb strings.Builder
	fmt.Fprintf(&sb, "a=%t v=%t t=%t r=%d/%d d=", r.Agreement, r.Validity, r.Termination, r.Rounds, r.RoundBudget)
	for _, u := range nodes {
		fmt.Fprintf(&sb, "%d:%d,", u, r.Decisions[lbcast.NodeID(u)])
	}
	return sb.String()
}

// inputMap converts a dense input vector to the map the public API takes.
func inputMap(in []lbcast.Value) map[lbcast.NodeID]lbcast.Value {
	m := make(map[lbcast.NodeID]lbcast.Value, len(in))
	for u, v := range in {
		m[lbcast.NodeID(u)] = v
	}
	return m
}

// mixedInputs draws an n-node input vector that holds both values, so the
// run cannot decide in its first phase: unanimous inputs end after one
// flooding phase and cost about half as much, which the generators account
// for explicitly instead of leaving it to the draw.
func mixedInputs(r *rand.Rand, n int) []lbcast.Value {
	in := make([]lbcast.Value, n)
	for {
		ones := 0
		for u := range in {
			in[u] = lbcast.Value(r.Intn(2))
			ones += int(in[u])
		}
		if ones != 0 && ones != n {
			return in
		}
	}
}

// edgeText renders an edge list canonically.
func edgeText(edges []lbcast.Edge) string {
	var sb strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&sb, "%d-%d ", e.U, e.V)
	}
	return sb.String()
}
