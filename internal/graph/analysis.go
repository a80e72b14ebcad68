package graph

import "sync"

// Analysis is the shared, read-only topology state of one graph: the
// expensive pure-graph computations every consensus instance needs —
// minimum degree, vertex connectivity, step-(b) shortest-path choices,
// and the fault-identification disjoint-path layouts — computed once and
// shared by every node of every instance that runs on the graph.
//
// The batched multi-instance engine (eval.RunBatch) is the motivating
// consumer: B instances over the same graph would otherwise redo the same
// BFS and max-flow work B times per node. Single executions benefit too
// (all n nodes of one run share one Analysis).
//
// Immutability contract: an Analysis never mutates its graph, and all of
// its methods are safe for concurrent use — internal memoization is
// guarded, and every memoized computation is a deterministic pure function
// of the immutable graph, so concurrent fills store identical values and
// results never depend on call interleaving. Returned Path slices are
// shared; callers must treat them as read-only (the module-wide Path
// convention). The graph must not be mutated while the Analysis is in
// use.
type Analysis struct {
	g         *Graph
	minDegree int

	connOnce sync.Once
	conn     int

	paths *DisjointPathsCache

	spMu sync.RWMutex
	sp   map[spKey]Path

	memoMu sync.Mutex
	memos  map[any]*memoSlot
}

// memoSlot is one Memo entry: a once guarding the build plus the built
// value, so concurrent callers of the same key block on one build instead
// of duplicating it.
type memoSlot struct {
	once sync.Once
	val  any
}

// spKey identifies one memoized shortest-path query: endpoints plus the
// exclusion set.
type spKey struct {
	s, t NodeID
	excl Set
}

// NewAnalysis returns a shared analysis of g. The graph must not be
// mutated afterwards.
func NewAnalysis(g *Graph) *Analysis {
	return &Analysis{
		g:         g,
		minDegree: g.MinDegree(),
		paths:     NewDisjointPathsCache(g),
		sp:        make(map[spKey]Path),
	}
}

// SharedAnalysis returns the graph's canonical Analysis, building it on
// first use; every call for the same graph returns the same instance. This
// is the anchor that makes analysis-memoized state — compiled propagation
// plans, run-state pools — persist across independent API calls over one
// graph: a Monte Carlo sweep, a session, and a batch that each pass no
// explicit analysis all land on this one instead of rebuilding (and then
// discarding) private copies. Like NewAnalysis, the graph must not be
// mutated after the first call; callers needing deliberately cold state
// (parity tests, A/B benchmarks) construct private analyses via
// NewAnalysis instead.
func (g *Graph) SharedAnalysis() *Analysis {
	if a := g.analysis.Load(); a != nil {
		return a
	}
	a := NewAnalysis(g)
	if g.analysis.CompareAndSwap(nil, a) {
		return a
	}
	return g.analysis.Load()
}

// Graph returns the analyzed graph. Callers must not mutate it.
func (a *Analysis) Graph() *Graph { return a.g }

// MinDegree returns the graph's minimum degree (computed once, at
// construction).
func (a *Analysis) MinDegree() int { return a.minDegree }

// Connectivity returns the graph's vertex connectivity, computed on first
// use and cached (the computation is a max-flow per non-adjacent pair).
func (a *Analysis) Connectivity() int {
	a.connOnce.Do(func() { a.conn = a.g.VertexConnectivity() })
	return a.conn
}

// ShortestPathExcluding is Graph.ShortestPathExcluding, memoized per
// (s, t, exclude). This is the step-(b) path choice of Algorithms 1/3:
// deterministic BFS, so the memoized result is identical to a fresh
// computation. The returned path is shared; callers must not modify it.
func (a *Analysis) ShortestPathExcluding(s, t NodeID, exclude Set) Path {
	k := spKey{s, t, exclude}
	a.spMu.RLock()
	p, ok := a.sp[k]
	a.spMu.RUnlock()
	if ok {
		return p
	}
	p = a.g.ShortestPathExcluding(s, t, exclude)
	a.spMu.Lock()
	// Last write wins; the BFS is deterministic, so concurrent fills
	// store identical values.
	a.sp[k] = p
	a.spMu.Unlock()
	return p
}

// DisjointPaths is Graph.DisjointPaths(u, v, want, nil), memoized — the
// fault-identification walk layouts of Algorithm 2. Returned paths are
// shared; callers must not modify them.
func (a *Analysis) DisjointPaths(u, v NodeID, want int) []Path {
	return a.paths.DisjointPaths(u, v, want)
}

// Memo returns the value cached on this analysis under key, building it
// exactly once via build on first use. It exists so that higher layers can
// attach their own derived, graph-pure state to the shared analysis (e.g.
// flood's compiled propagation plans) without graph depending on them.
// build must be a deterministic pure function of the immutable graph, and
// the value it returns must be safe for concurrent read-only use — the
// same contract every native Analysis memo obeys. Concurrent callers of
// the same key share one build; distinct keys build independently.
func (a *Analysis) Memo(key any, build func() any) any {
	a.memoMu.Lock()
	if a.memos == nil {
		a.memos = make(map[any]*memoSlot)
	}
	slot, ok := a.memos[key]
	if !ok {
		slot = &memoSlot{}
		a.memos[key] = slot
	}
	a.memoMu.Unlock()
	slot.once.Do(func() { slot.val = build() })
	return slot.val
}
