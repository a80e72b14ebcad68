package graph

import "sync"

// DisjointPathsCache memoizes DisjointPaths(u, v, k, nil) results for one
// graph. The computation is a max-flow per (u, v) pair and depends only on
// the immutable graph, yet Algorithm 2's fault identification makes every
// node of a run walk the same n² pair results — sharing one cache across
// the run's nodes computes each pair once instead of n times.
//
// The cache is safe for concurrent use (concurrent runs on one graph share
// it). Returned path slices are shared: callers must treat them as
// read-only, which is the module-wide convention for Path values.
type DisjointPathsCache struct {
	g  *Graph
	mu sync.RWMutex
	m  map[pathsKey][]Path
}

type pathsKey struct {
	u, v NodeID
	want int
}

// NewDisjointPathsCache returns an empty cache for g. The graph must not
// be mutated while the cache is in use.
func NewDisjointPathsCache(g *Graph) *DisjointPathsCache {
	return &DisjointPathsCache{g: g, m: make(map[pathsKey][]Path)}
}

// DisjointPaths is Graph.DisjointPaths(u, v, want, nil), memoized.
func (c *DisjointPathsCache) DisjointPaths(u, v NodeID, want int) []Path {
	k := pathsKey{u: u, v: v, want: want}
	c.mu.RLock()
	ps, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		return ps
	}
	ps = c.g.DisjointPaths(u, v, want, 0)
	c.mu.Lock()
	// Last write wins; the computation is deterministic, so concurrent
	// fills store identical values.
	c.m[k] = ps
	c.mu.Unlock()
	return ps
}
