package eval

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"

	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file implements the parallel sweep subsystem: a declarative Grid of
// execution parameters (graphs × f × algorithm × strategy × model ×
// placements × input patterns) is expanded into independent cells and run
// on a bounded worker pool. Every cell derives its randomness from a
// deterministic per-cell seed computed from the grid seed and the cell
// index, so sweep results are identical whatever the worker count — the
// pool only changes wall-clock time, never outcomes.

// GraphCase names a graph inside a Grid.
type GraphCase struct {
	Label string
	G     *graph.Graph
}

// Grid declares a sweep: the cross product of every dimension. Zero-value
// dimensions get defaults (Algorithms: Algo1; Strategies: "none"; Models:
// LocalBroadcast; one random fault placement per cell).
type Grid struct {
	// Graphs are the communication graphs to sweep over (required).
	Graphs []GraphCase
	// Faults lists the fault bounds f (required, may be {0}).
	Faults []int
	// T is the equivocation bound applied to every cell (Algo3 only).
	T int
	// Algorithms lists the protocols (default {Algo1}).
	Algorithms []Algorithm
	// Strategies lists adversary strategies by name: "none", "silent",
	// "tamper", "equivocate", "forge" (default {"none"}).
	Strategies []string
	// Models lists the communication models (default {LocalBroadcast}).
	Models []sim.Model
	// FaultSets pins explicit fault placements. When nil, each cell
	// draws Placements random placements of size f from its seed.
	FaultSets []graph.Set
	// Placements is the number of random fault placements per parameter
	// combination when FaultSets is nil (default 1).
	Placements int
	// Patterns lists repeating input patterns. When nil, each cell draws
	// one random input assignment from its seed.
	Patterns [][]sim.Value
	// Seed is the sweep's master seed; per-cell seeds derive from it and
	// the cell index.
	Seed int64
	// FullBudget disables early termination in every cell.
	FullBudget bool
}

// Cell is one expanded execution of a Grid.
type Cell struct {
	Index     int       `json:"index"`
	Graph     string    `json:"graph"`
	N         int       `json:"n"`
	F         int       `json:"f"`
	T         int       `json:"t,omitempty"`
	Algorithm Algorithm `json:"algorithm"`
	Strategy  string    `json:"strategy"`
	Model     sim.Model `json:"model"`
	Seed      int64     `json:"seed"`

	g         *graph.Graph
	faultSet  graph.Set
	drawFault bool        // draw faultSet from the seed instead
	pattern   []sim.Value // nil = draw from seed
}

// CellOutcome pairs a cell with its judged result. Err is set when the
// execution failed to run at all (the outcome is then zero).
type CellOutcome struct {
	Cell
	Faulty  []graph.NodeID `json:"faulty,omitempty"`
	Outcome Outcome        `json:"outcome"`
	Err     string         `json:"error,omitempty"`
}

// SweepStats aggregates a sweep.
type SweepStats struct {
	Cells         int `json:"cells"`
	OK            int `json:"ok"`
	Violations    int `json:"violations"`
	Errors        int `json:"errors"`
	Rounds        int `json:"rounds"`
	BudgetRounds  int `json:"budget_rounds"`
	Transmissions int `json:"transmissions"`
}

// SweepResult is the full structured result of a sweep: per-cell outcomes
// in cell-index order plus aggregate statistics.
type SweepResult struct {
	Cells []CellOutcome `json:"cells"`
	Stats SweepStats    `json:"stats"`
}

// WriteJSON encodes the result as indented JSON.
func (r SweepResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// splitmix64 is the per-cell seed mixer: cheap, stateless, and with full
// avalanche, so neighboring cell indices get unrelated streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func cellSeed(master int64, index int) int64 {
	return int64(splitmix64(uint64(master)^splitmix64(uint64(index))) >> 1)
}

// Expand materializes the grid's cross product in deterministic order.
func (g Grid) Expand() ([]Cell, error) {
	if len(g.Graphs) == 0 {
		return nil, fmt.Errorf("eval: sweep grid has no graphs")
	}
	if len(g.Faults) == 0 {
		return nil, fmt.Errorf("eval: sweep grid has no fault bounds")
	}
	algorithms := g.Algorithms
	if len(algorithms) == 0 {
		algorithms = []Algorithm{Algo1}
	}
	strategies := g.Strategies
	if len(strategies) == 0 {
		strategies = []string{string(stratNone)}
	}
	for _, s := range strategies {
		switch strategyKind(s) {
		case stratNone, stratSilent, stratTamper, stratEquivoc, stratForge:
		default:
			return nil, fmt.Errorf("eval: unknown sweep strategy %q", s)
		}
	}
	models := g.Models
	if len(models) == 0 {
		models = []sim.Model{sim.LocalBroadcast}
	}
	placements := g.Placements
	if placements <= 0 {
		placements = 1
	}
	var cells []Cell
	for _, gc := range g.Graphs {
		if gc.G == nil {
			return nil, fmt.Errorf("eval: sweep graph %q is nil", gc.Label)
		}
		for _, f := range g.Faults {
			if f < 0 {
				return nil, fmt.Errorf("eval: sweep fault bound %d is negative", f)
			}
			for _, alg := range algorithms {
				for _, model := range models {
					for _, strat := range strategies {
						faultSets, draw := g.FaultSets, false
						if strategyKind(strat) == stratNone {
							// A fault-free cell has exactly one placement.
							faultSets = []graph.Set{0}
						} else if faultSets == nil {
							faultSets, draw = make([]graph.Set, placements), true
						}
						for _, fs := range faultSets {
							patterns := g.Patterns
							if patterns == nil {
								patterns = [][]sim.Value{nil}
							}
							for _, pat := range patterns {
								idx := len(cells)
								cells = append(cells, Cell{
									Index:     idx,
									Graph:     gc.Label,
									N:         gc.G.N(),
									F:         f,
									T:         g.T,
									Algorithm: alg,
									Strategy:  strat,
									Model:     model,
									Seed:      cellSeed(g.Seed, idx),
									g:         gc.G,
									faultSet:  fs,
									drawFault: draw,
									pattern:   pat,
								})
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// run executes one cell. All cell randomness (fault placement, inputs,
// adversary seeds) comes from the cell's own seed, so the result is a
// pure function of the cell.
func (c Cell) run(ctx context.Context, topo *graph.Analysis, fullBudget bool) CellOutcome {
	out := CellOutcome{Cell: c}
	rng := rand.New(rand.NewSource(c.Seed))
	n := c.g.N()

	faulty := c.faultSet
	if c.drawFault {
		for _, p := range rng.Perm(n) {
			if faulty.Len() == c.F {
				break
			}
			faulty.Add(graph.NodeID(p))
		}
	}
	out.Faulty = faulty.Slice()

	var inputs map[graph.NodeID]sim.Value
	if c.pattern != nil {
		inputs = inputPattern(n, c.pattern)
	} else {
		inputs = make(map[graph.NodeID]sim.Value, n)
		for i := 0; i < n; i++ {
			inputs[graph.NodeID(i)] = sim.Value(rng.Intn(2))
		}
	}

	equiv := graph.NewSet()
	if c.Model == sim.Hybrid {
		equiv = faulty
	}
	spec := Spec{
		G:            c.g,
		F:            c.F,
		T:            c.T,
		Algorithm:    c.Algorithm,
		Inputs:       inputs,
		Byzantine:    buildByzantine(c.g, faulty, strategyKind(c.Strategy), rng.Int63()),
		Model:        c.Model,
		Equivocators: equiv,
		FullBudget:   fullBudget,
	}
	s, err := newSessionShared(spec, topo)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	res, err := s.Run(ctx)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Outcome = res
	return out
}

// RunPool runs fn(0..n-1) on a bounded worker pool. workers <= 0 selects
// runtime.GOMAXPROCS(0). fn must write its result into its own index slot
// of a pre-sized slice; the pool itself imposes no ordering, so result
// determinism is the callers' per-index responsibility. RunPool returns
// once every index has been processed.
func RunPool(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// RunSweep expands the grid and runs every cell on a bounded worker pool.
// workers <= 0 selects runtime.GOMAXPROCS(0). Results are returned in
// cell-index order and are identical for every worker count. Cancelling
// the context aborts in-flight cells mid-execution; RunSweep then returns
// the context's error.
func RunSweep(ctx context.Context, grid Grid, workers int) (SweepResult, error) {
	cells, err := grid.Expand()
	if err != nil {
		return SweepResult{}, err
	}
	// One shared analysis per distinct graph — the graph's canonical one,
	// so repeated sweeps over the same graph also share memoized topology
	// state, compiled propagation plans, and run pools instead of
	// re-deriving them per call. Analyses (and frozen plan arenas) are
	// concurrency-safe, so parallel cells share freely.
	analyses := make(map[*graph.Graph]*graph.Analysis)
	for _, c := range cells {
		if _, ok := analyses[c.g]; !ok {
			analyses[c.g] = c.g.SharedAnalysis()
		}
	}
	outcomes := make([]CellOutcome, len(cells))
	RunPool(workers, len(cells), func(i int) {
		outcomes[i] = cells[i].run(ctx, analyses[cells[i].g], grid.FullBudget)
	})
	if err := ctx.Err(); err != nil {
		return SweepResult{}, fmt.Errorf("eval: sweep canceled: %w", err)
	}
	res := SweepResult{Cells: outcomes}
	res.Stats.Cells = len(outcomes)
	for _, c := range outcomes {
		switch {
		case c.Err != "":
			res.Stats.Errors++
		case c.Outcome.OK():
			res.Stats.OK++
		default:
			res.Stats.Violations++
		}
		res.Stats.Rounds += c.Outcome.Rounds
		res.Stats.BudgetRounds += c.Outcome.Budget
		res.Stats.Transmissions += c.Outcome.Metrics.Transmissions
	}
	return res, nil
}

// Sweep worker-count default, overridable by the binaries' -workers flag.
var (
	sweepWorkersMu sync.RWMutex
	sweepWorkers   int
)

// SetDefaultSweepWorkers sets the worker count used by sweeps that are
// started without an explicit count (the experiment suite's internal
// sweeps). n <= 0 restores the GOMAXPROCS default. The worker count never
// affects results, only wall-clock time.
func SetDefaultSweepWorkers(n int) {
	sweepWorkersMu.Lock()
	defer sweepWorkersMu.Unlock()
	sweepWorkers = n
}

// DefaultSweepWorkers returns the configured default worker count (0 =
// GOMAXPROCS).
func DefaultSweepWorkers() int {
	sweepWorkersMu.RLock()
	defer sweepWorkersMu.RUnlock()
	return sweepWorkers
}
