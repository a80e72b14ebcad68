package eval

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"lbcast/internal/adversary"
	"lbcast/internal/core"
	"lbcast/internal/faultinject"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// MonteCarloConfig drives a randomized robustness sweep: repeated
// executions with random inputs, random fault placements of a fixed size,
// and a random strategy per fault, all derived deterministically from
// Seed.
type MonteCarloConfig struct {
	G         *graph.Graph
	F         int
	Algorithm Algorithm
	// Faults is the number of Byzantine nodes planted per trial
	// (must be <= F; default F).
	Faults int
	// FaultProb, when in (0, 1), makes each trial adversarial only with
	// this probability and fault-free otherwise — the production-traffic
	// profile where faults are the exception. 0 (the default) and 1 both
	// mean every trial plants Faults faults, with per-trial random
	// streams identical to a sweep that never set the knob.
	FaultProb float64
	// Trials is the number of executions (default 20).
	Trials int
	// Seed makes the sweep reproducible.
	Seed int64
	// Strategies to draw from (default: silent, tamper, equivocate).
	Strategies []string
	// Workers bounds the worker pool (default runtime.GOMAXPROCS).
	// Results are identical for every worker count: each trial derives
	// all of its randomness from its own seed.
	Workers int
	// Batch, when > 1, executes the trials in batched groups of that size
	// through the multi-instance engine (RunBatch): every group shares one
	// round loop and one topology analysis. Per-trial randomness is
	// derived exactly as in unbatched mode, so the verdicts are identical
	// — batching changes throughput, never outcomes.
	Batch int
	// freshScaffolding disables trial-scaffolding recycling: every trial
	// constructs its RNG, input vector, fault placement, and adversary
	// instances from scratch instead of re-arming pooled ones. The two
	// modes produce byte-identical results for every seed; fresh mode is
	// the reference side of the pooled-parity suites, which set it
	// directly.
	freshScaffolding bool
	// ChurnProfile, when its Kind is set, injects a per-trial topology
	// fault schedule (see faultinject): random link churn, a random
	// partition, or a correlated crash burst, derived from a seed stream
	// separate from the trial's own — the zero profile leaves every
	// existing sweep's randomness byte-identical. Incompatible with
	// Batch > 1 (batched instances share one round loop and one static
	// topology). Trials whose world drops below the paper's thresholds
	// count as Degraded, never as violations.
	ChurnProfile ChurnProfile
}

// ChurnProfile parameterizes the per-trial fault-injection schedules of a
// Monte Carlo sweep.
type ChurnProfile struct {
	// Kind selects the schedule generator: "churn" (random link flaps
	// with paired heals), "partition" (a random split that may heal), or
	// "burst" (a correlated crash burst with optional recovery). Empty
	// disables injection.
	Kind string
	// Prob is the probability a given trial receives a schedule at all
	// (default 1: every trial).
	Prob float64
	// Events sizes the schedule: flap count for churn, victim count for
	// burst (default max(1, F)); ignored by partition.
	Events int
	// Start is the first round events may land on (default 0).
	Start int
	// Span is the window length in rounds: churn flaps land in
	// [Start, Start+Span) and heal at Start+Span, a partition heals at
	// Start+Span, a burst recovers after Span rounds (0 means no
	// recovery). Default: one phase length for churn and partition.
	Span int
}

// active reports whether the profile injects schedules.
func (p ChurnProfile) active() bool { return p.Kind != "" }

// MonteCarloResult tallies a sweep. Trials = OK + Degraded +
// len(Violations): a failed trial whose injected world dropped below the
// paper's thresholds lands in Degraded — the expected behavior of an
// infeasible world — and only failures of above-threshold worlds are
// Violations.
type MonteCarloResult struct {
	Trials int
	OK     int
	// Degraded counts failed trials excused by a DegradedConnectivity
	// verdict (fault injection pushed the world below the thresholds).
	Degraded   int
	Violations []MonteCarloViolation
}

// MonteCarloViolation records one failed trial for diagnosis.
type MonteCarloViolation struct {
	Trial    int
	Faulty   []graph.NodeID
	Strategy string
	Outcome  Outcome
}

// MonteCarlo runs the sweep on a bounded worker pool. On graphs
// satisfying the paper's conditions the expected result is OK == Trials;
// any violation is returned with its reproduction data. Each trial draws
// all of its randomness from a per-trial seed derived from cfg.Seed, so
// results are reproducible and independent of the worker count.
func MonteCarlo(cfg MonteCarloConfig) (MonteCarloResult, error) {
	return MonteCarloContext(context.Background(), cfg)
}

// MonteCarloContext is MonteCarlo with cancellation support.
func MonteCarloContext(ctx context.Context, cfg MonteCarloConfig) (MonteCarloResult, error) {
	if cfg.G == nil {
		return MonteCarloResult{}, fmt.Errorf("eval: nil graph")
	}
	if cfg.Trials < 0 {
		return MonteCarloResult{}, fmt.Errorf("eval: negative trial count %d", cfg.Trials)
	}
	if cfg.Trials == 0 {
		cfg.Trials = 20
	}
	if cfg.Faults == 0 {
		cfg.Faults = cfg.F
	}
	if cfg.Faults > cfg.F {
		return MonteCarloResult{}, fmt.Errorf("eval: %d faults exceeds bound f=%d", cfg.Faults, cfg.F)
	}
	if len(cfg.Strategies) == 0 {
		cfg.Strategies = []string{"silent", "tamper", "equivocate", "forge"}
	}
	for _, s := range cfg.Strategies {
		switch s {
		// "adaptive" is opt-in only: listing it in the defaults would
		// shift every existing sweep's strategy draws.
		case "silent", "tamper", "equivocate", "forge", "adaptive":
		default:
			return MonteCarloResult{}, fmt.Errorf("eval: unknown strategy %q", s)
		}
	}
	if cfg.Batch < 0 {
		return MonteCarloResult{}, fmt.Errorf("eval: negative batch size %d", cfg.Batch)
	}
	if cfg.FaultProb < 0 || cfg.FaultProb > 1 {
		return MonteCarloResult{}, fmt.Errorf("eval: fault probability %v outside [0, 1]", cfg.FaultProb)
	}
	if cfg.ChurnProfile.active() {
		switch cfg.ChurnProfile.Kind {
		case "churn", "partition", "burst":
		default:
			return MonteCarloResult{}, fmt.Errorf("eval: unknown churn profile kind %q", cfg.ChurnProfile.Kind)
		}
		if p := cfg.ChurnProfile.Prob; p < 0 || p > 1 {
			return MonteCarloResult{}, fmt.Errorf("eval: churn probability %v outside [0, 1]", p)
		}
		if cfg.ChurnProfile.Start < 0 || cfg.ChurnProfile.Span < 0 || cfg.ChurnProfile.Events < 0 {
			return MonteCarloResult{}, fmt.Errorf("eval: negative churn profile parameter")
		}
		if cfg.Batch > 1 {
			return MonteCarloResult{}, fmt.Errorf("eval: churn profile is incompatible with batched trials (batch %d)", cfg.Batch)
		}
	}
	// One shared topology analysis for the whole sweep — and across sweeps:
	// every trial (and every batched trial group) draws its memoized BFS
	// choices, disjoint-path layouts, the compiled propagation plan, AND the
	// run-state pools from the graph's canonical analysis, so the per-graph
	// work is paid once for the graph's lifetime, not once per MonteCarlo
	// call. The analysis is concurrency-safe; a compiled plan's frozen
	// arena is read-only and shared by every replaying trial.
	topo := cfg.G.SharedAnalysis()
	results := make([]mcTrialResult, cfg.Trials)
	if cfg.Batch > 1 {
		groups := (cfg.Trials + cfg.Batch - 1) / cfg.Batch
		RunPool(cfg.Workers, groups, func(gi int) {
			lo := gi * cfg.Batch
			hi := min(lo+cfg.Batch, cfg.Trials)
			runMonteCarloBatch(ctx, cfg, topo, lo, hi, results[lo:hi])
		})
	} else {
		RunPool(cfg.Workers, cfg.Trials, func(trial int) {
			results[trial] = runMonteCarloTrial(ctx, cfg, topo, trial)
		})
	}

	res := MonteCarloResult{Trials: cfg.Trials}
	for _, r := range results {
		if r.err != nil {
			return res, r.err
		}
		if r.degraded {
			res.Degraded++
			continue
		}
		if r.violation == nil {
			res.OK++
			continue
		}
		res.Violations = append(res.Violations, *r.violation)
	}
	return res, nil
}

// mcTrialResult is one trial's slot in the result table.
type mcTrialResult struct {
	violation *MonteCarloViolation
	// degraded marks a failed trial excused by its injected world dropping
	// below the paper's thresholds.
	degraded bool
	err      error
}

// mcScratch is the pooled per-worker trial scaffolding: the RNG, the
// permutation buffer, and per-slot input slabs, fault lists, Byzantine
// maps, and batch-instance records, all grown to high-water capacity and
// recycled across trials, groups, sweeps, and graphs. Adversaries acquired
// for the scratch's trials are tracked in acquired and returned to their
// strategy pools on release — after the run has completed and the verdict
// (which copies everything it keeps) has been extracted.
type mcScratch struct {
	rng  *rand.Rand
	perm []int
	// Per-slot scaffolding; unbatched trials use slot 0, a batched group
	// of b trials uses slots [0, b).
	slabs     [][]sim.Value
	byzs      []map[graph.NodeID]sim.Node
	faulties  [][]graph.NodeID
	strats    []string
	instances []BatchInstance
	acquired  []sim.Node
}

var mcScratchPool sync.Pool

// Trial-scaffolding pool counters (exported via ReadTrialPoolStats).
var (
	trialPoolHits   atomic.Uint64
	trialPoolMisses atomic.Uint64
)

// ReadTrialPoolStats returns the cumulative Monte Carlo trial-scaffolding
// pool hit and miss counts: a hit recycled a worker's scratch (RNG,
// permutation buffer, input slabs, fault lists), a miss built it fresh.
func ReadTrialPoolStats() (hits, misses uint64) {
	return trialPoolHits.Load(), trialPoolMisses.Load()
}

// acquireMCScratch returns scratch sized for n-vertex trials across slots
// concurrent slots.
func acquireMCScratch(n, slots int) *mcScratch {
	var sc *mcScratch
	if v := mcScratchPool.Get(); v != nil {
		trialPoolHits.Add(1)
		sc = v.(*mcScratch)
	} else {
		trialPoolMisses.Add(1)
		sc = &mcScratch{}
	}
	if cap(sc.perm) < n {
		sc.perm = make([]int, n)
	}
	sc.perm = sc.perm[:n]
	for len(sc.slabs) < slots {
		sc.slabs = append(sc.slabs, nil)
		sc.byzs = append(sc.byzs, nil)
		sc.faulties = append(sc.faulties, nil)
		sc.strats = append(sc.strats, "")
	}
	for i := 0; i < slots; i++ {
		if cap(sc.slabs[i]) < n {
			sc.slabs[i] = make([]sim.Value, n)
		}
		sc.slabs[i] = sc.slabs[i][:n]
	}
	return sc
}

// release returns every acquired adversary to its strategy pool and the
// scratch itself to the scaffolding pool. Callers must be done with the
// run AND with every reference into the scratch (verdicts copy what they
// keep) before releasing.
func (sc *mcScratch) release() {
	for i, nd := range sc.acquired {
		adversary.Release(nd)
		sc.acquired[i] = nil
	}
	sc.acquired = sc.acquired[:0]
	mcScratchPool.Put(sc)
}

// permInto is rand.Rand.Perm into a caller-owned buffer: it consumes the
// identical random stream (including the redundant Intn(1) draw at i = 0
// that Perm keeps for Go 1 stream compatibility), which the pooled-parity
// suite depends on.
func permInto(r *rand.Rand, m []int) {
	for i := range m {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}

// setup is mcTrialSetup against recycled scaffolding: identical random
// stream, identical placements and strategies, but the inputs land in the
// slot's dense slab, the fault list and Byzantine map recycle the slot's
// buffers, and the adversaries come from the strategy pools (their Reset
// restores exactly the constructor's seeded stream). Any divergence from
// mcTrialSetup is a bug the pooled-parity suite exists to catch.
func (sc *mcScratch) setup(cfg MonteCarloConfig, trial, slot int) (slab []sim.Value, faulty []graph.NodeID, strat string, byz map[graph.NodeID]sim.Node) {
	seed := cellSeed(cfg.Seed, trial)
	if sc.rng == nil {
		sc.rng = rand.New(adversary.NewFastSource(seed))
	} else {
		// Rand.Seed delegates to the fast source's O(1) reseed and rewinds
		// the Rand's own read position — the recycled stream is exactly a
		// fresh rand.New(NewFastSource(seed)).
		sc.rng.Seed(seed)
	}
	rng := sc.rng
	n := cfg.G.N()
	slab = sc.slabs[slot]
	for i := 0; i < n; i++ {
		slab[i] = sim.Value(rng.Intn(2))
	}
	if cfg.FaultProb > 0 && cfg.FaultProb < 1 && rng.Float64() >= cfg.FaultProb {
		// Truncate (don't keep) any previous trial's fault list in this
		// slot — a benign trial has none. mcVerdict's copy normalizes the
		// empty slice to nil, matching mcTrialSetup exactly.
		sc.faulties[slot] = sc.faulties[slot][:0]
		return slab, nil, "none", nil
	}
	permInto(rng, sc.perm)
	faulty = sc.faulties[slot][:0]
	for _, p := range sc.perm[:cfg.Faults] {
		faulty = append(faulty, graph.NodeID(p))
	}
	sc.faulties[slot] = faulty
	strat = cfg.Strategies[rng.Intn(len(cfg.Strategies))]
	byz = sc.byzs[slot]
	if byz == nil {
		byz = make(map[graph.NodeID]sim.Node, len(faulty))
		sc.byzs[slot] = byz
	} else {
		clear(byz)
	}
	phaseLen := core.PhaseRounds(n)
	for _, u := range faulty {
		var nd sim.Node
		switch strat {
		case "silent":
			nd = adversary.AcquireSilent(u)
		case "tamper":
			nd = adversary.AcquireTamper(cfg.G, u, phaseLen, rng.Int63())
		case "equivocate":
			nd = adversary.AcquireEquivocator(cfg.G, u, phaseLen)
		case "forge":
			nd = adversary.AcquireForger(cfg.G, u, phaseLen, rng.Int63())
		case "adaptive":
			nd = adversary.AcquireAdaptive(cfg.G, u, phaseLen, rng.Int63())
		}
		byz[u] = nd
		sc.acquired = append(sc.acquired, nd)
	}
	return slab, faulty, strat, byz
}

// mcTrialSetup derives one trial's inputs, fault placement, strategy, and
// adversary instances from the trial's own seed. Batched and unbatched
// execution share this derivation, which is what makes their verdicts
// identical.
func mcTrialSetup(cfg MonteCarloConfig, trial int) (inputs map[graph.NodeID]sim.Value, faulty []graph.NodeID, strat string, byz map[graph.NodeID]sim.Node) {
	// The O(1)-seed trial source: math/rand's default source pays ~1800
	// LCG steps per Seed to fill its 607-word state, which dominated sweep
	// profiles when every trial (and every tamper/forge fault) seeds its
	// own stream for a few dozen draws. The pooled scaffolding reseeds the
	// same source kind, keeping the two derivations byte-identical.
	rng := rand.New(adversary.NewFastSource(cellSeed(cfg.Seed, trial)))
	n := cfg.G.N()
	inputs = make(map[graph.NodeID]sim.Value, n)
	for i := 0; i < n; i++ {
		inputs[graph.NodeID(i)] = sim.Value(rng.Intn(2))
	}
	// The FaultProb draw happens only when the knob is active, so a
	// sweep's per-trial streams are identical whether or not the knob
	// exists at the default.
	if cfg.FaultProb > 0 && cfg.FaultProb < 1 && rng.Float64() >= cfg.FaultProb {
		return inputs, nil, "none", nil
	}
	perm := rng.Perm(n)
	faulty = make([]graph.NodeID, 0, cfg.Faults)
	for _, p := range perm[:cfg.Faults] {
		faulty = append(faulty, graph.NodeID(p))
	}
	strat = cfg.Strategies[rng.Intn(len(cfg.Strategies))]
	byz = make(map[graph.NodeID]sim.Node, len(faulty))
	phaseLen := core.PhaseRounds(n)
	for _, u := range faulty {
		switch strat {
		case "silent":
			byz[u] = &adversary.SilentNode{Me: u}
		case "tamper":
			byz[u] = adversary.NewFastTamper(cfg.G, u, phaseLen, rng.Int63())
		case "equivocate":
			byz[u] = &adversary.EquivocatorNode{G: cfg.G, Me: u, PhaseLen: phaseLen}
		case "forge":
			byz[u] = adversary.NewFastForger(cfg.G, u, phaseLen, rng.Int63())
		case "adaptive":
			byz[u] = adversary.NewAdaptive(cfg.G, u, phaseLen, rng.Int63())
		}
	}
	return inputs, faulty, strat, byz
}

// mcVerdict converts one judged outcome into the trial's result slot. A
// violation outlives the (possibly recycled) trial scaffolding, so the
// faulty slice is copied out of it; OK trials keep nothing. A failed trial
// whose injected world dropped below the thresholds is degraded, never a
// violation — the protocol owes nothing to an infeasible world.
func mcVerdict(trial int, faulty []graph.NodeID, strat string, run Outcome) mcTrialResult {
	if run.OK() {
		return mcTrialResult{}
	}
	if run.DegradedConnectivity {
		return mcTrialResult{degraded: true}
	}
	return mcTrialResult{violation: &MonteCarloViolation{
		Trial:    trial,
		Faulty:   append([]graph.NodeID(nil), faulty...),
		Strategy: strat,
		Outcome:  run,
	}}
}

// mcChurnSeedSalt decorrelates the schedule stream from the trial stream:
// schedules derive from cellSeed(Seed^salt, trial), so an active profile
// never consumes (or shifts) a draw of the trial's own seeded stream.
const mcChurnSeedSalt = 0x43485552 // "CHUR"

// mcChurnSchedule derives trial's fault-injection schedule from the
// profile, or nil when the profile is inactive or the trial's probability
// draw passes on injection. Deterministic in (cfg.Seed, trial).
func mcChurnSchedule(cfg MonteCarloConfig, trial int) *faultinject.Schedule {
	p := cfg.ChurnProfile
	if !p.active() {
		return nil
	}
	rng := rand.New(adversary.NewFastSource(cellSeed(cfg.Seed^mcChurnSeedSalt, trial)))
	if p.Prob > 0 && p.Prob < 1 && rng.Float64() >= p.Prob {
		return nil
	}
	n := cfg.G.N()
	events := p.Events
	if events == 0 {
		events = max(1, cfg.F)
	}
	span := p.Span
	if span == 0 && p.Kind != "burst" {
		span = core.PhaseRounds(n)
	}
	switch p.Kind {
	case "partition":
		return faultinject.Partition(cfg.G, rng, p.Start, p.Start+span)
	case "burst":
		return faultinject.Burst(cfg.G, rng, events, p.Start, span)
	default:
		return faultinject.Churn(cfg.G, rng, events, p.Start, span, p.Start+span)
	}
}

// runMonteCarloTrial executes one trial; all randomness derives from the
// trial's own seed, while topology state (and compiled plans) come from
// the sweep-wide shared analysis. By default the trial's scaffolding —
// RNG, input slab, fault list, adversaries — is recycled through the
// scratch and strategy pools; freshScaffolding reverts to per-trial
// construction (same verdicts, reference implementation).
func runMonteCarloTrial(ctx context.Context, cfg MonteCarloConfig, topo *graph.Analysis, trial int) mcTrialResult {
	spec := Spec{
		G:         cfg.G,
		F:         cfg.F,
		Algorithm: cfg.Algorithm,
		Churn:     mcChurnSchedule(cfg, trial),
	}
	var faulty []graph.NodeID
	var strat string
	if cfg.freshScaffolding {
		spec.Inputs, faulty, strat, spec.Byzantine = mcTrialSetup(cfg, trial)
	} else {
		sc := acquireMCScratch(cfg.G.N(), 1)
		defer sc.release()
		spec.InputSlab, faulty, strat, spec.Byzantine = sc.setup(cfg, trial, 0)
	}
	s, err := newSessionShared(spec, topo)
	if err != nil {
		return mcTrialResult{err: err}
	}
	run, err := s.Run(ctx)
	if err != nil {
		return mcTrialResult{err: err}
	}
	return mcVerdict(trial, faulty, strat, run)
}

// runMonteCarloBatch executes trials [lo, hi) as one multi-instance batch
// and writes each trial's verdict into its slot of results. The shared
// analysis serves every group of the sweep; the group's scaffolding —
// instance records, input slabs, fault lists, adversaries — recycles
// through the scratch and strategy pools unless freshScaffolding is set.
// OmitOKDecisions is safe in both modes: Monte Carlo discards OK outcomes,
// and violating instances are judged by the full path either way.
func runMonteCarloBatch(ctx context.Context, cfg MonteCarloConfig, topo *graph.Analysis, lo, hi int, results []mcTrialResult) {
	b := hi - lo
	var instances []BatchInstance
	var faulties [][]graph.NodeID
	var strats []string
	if cfg.freshScaffolding {
		instances = make([]BatchInstance, b)
		faulties = make([][]graph.NodeID, b)
		strats = make([]string, b)
		for i := 0; i < b; i++ {
			inputs, faulty, strat, byz := mcTrialSetup(cfg, lo+i)
			instances[i] = BatchInstance{Inputs: inputs, Byzantine: byz}
			faulties[i] = faulty
			strats[i] = strat
		}
	} else {
		sc := acquireMCScratch(cfg.G.N(), b)
		defer sc.release()
		instances = sc.instances[:0]
		for i := 0; i < b; i++ {
			slab, _, strat, byz := sc.setup(cfg, lo+i, i) // fault list lands in sc.faulties[i]
			instances = append(instances, BatchInstance{InputSlab: slab, Byzantine: byz})
			sc.strats[i] = strat
		}
		sc.instances = instances
		faulties = sc.faulties[:b]
		strats = sc.strats[:b]
	}
	out, err := runBatchShared(ctx, BatchSpec{
		G:               cfg.G,
		F:               cfg.F,
		Algorithm:       cfg.Algorithm,
		OmitOKDecisions: true,
		Instances:       instances,
	}, topo)
	if err != nil {
		for i := range results {
			results[i] = mcTrialResult{err: err}
		}
		return
	}
	for i := 0; i < b; i++ {
		results[i] = mcVerdict(lo+i, faulties[i], strats[i], out.Outcomes[i])
	}
}
