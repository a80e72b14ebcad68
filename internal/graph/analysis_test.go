package graph

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func analysisTestGraph(t *testing.T) *Graph {
	t.Helper()
	// C8(1,2): the Figure 1(b) stand-in, connectivity 4.
	g := New(8)
	for i := 0; i < 8; i++ {
		for _, d := range []int{1, 2} {
			if err := g.AddEdge(NodeID(i), NodeID((i+d)%8)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// TestAnalysisMatchesDirectComputation checks every memoized accessor
// against the direct graph computation.
func TestAnalysisMatchesDirectComputation(t *testing.T) {
	g := analysisTestGraph(t)
	a := NewAnalysis(g)
	if got, want := a.MinDegree(), g.MinDegree(); got != want {
		t.Errorf("MinDegree = %d, want %d", got, want)
	}
	if got, want := a.Connectivity(), g.VertexConnectivity(); got != want {
		t.Errorf("Connectivity = %d, want %d", got, want)
	}
	if a.Graph() != g {
		t.Error("Graph() does not return the analyzed graph")
	}
	excls := []Set{0, NewSet(), NewSet(3), NewSet(2, 5)}
	for s := 0; s < g.N(); s++ {
		for u := 0; u < g.N(); u++ {
			for _, excl := range excls {
				// Twice: miss then hit must agree with the direct BFS.
				for rep := 0; rep < 2; rep++ {
					got := a.ShortestPathExcluding(NodeID(s), NodeID(u), excl)
					want := g.ShortestPathExcluding(NodeID(s), NodeID(u), excl)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("ShortestPathExcluding(%d,%d,%v) rep %d = %v, want %v", s, u, excl, rep, got, want)
					}
				}
			}
			if s != u {
				got := a.DisjointPaths(NodeID(s), NodeID(u), 4)
				want := g.DisjointPaths(NodeID(s), NodeID(u), 4, 0)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("DisjointPaths(%d,%d) = %v, want %v", s, u, got, want)
				}
			}
		}
	}
}

// TestAnalysisConcurrentImmutability is the shared-analysis contract test
// (run under -race in CI): many goroutines — standing in for the
// concurrent instances of a batch — hammer one Analysis with overlapping
// queries while a reference snapshot verifies the graph is never mutated
// and every concurrent result equals the sequential computation.
func TestAnalysisConcurrentImmutability(t *testing.T) {
	g := analysisTestGraph(t)
	before := g.String()
	a := NewAnalysis(g)

	type spQuery struct {
		s, u NodeID
		excl Set
	}
	var queries []spQuery
	for s := 0; s < g.N(); s++ {
		for u := 0; u < g.N(); u++ {
			for _, excl := range []Set{0, NewSet(1), NewSet(0, 4), NewSet(2, 6)} {
				queries = append(queries, spQuery{NodeID(s), NodeID(u), excl})
			}
		}
	}
	// Sequential reference results from a fresh graph walk.
	wantSP := make([]Path, len(queries))
	for i, q := range queries {
		wantSP[i] = g.ShortestPathExcluding(q.s, q.u, q.excl)
	}
	wantConn := g.VertexConnectivity()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 400; iter++ {
				i := rng.Intn(len(queries))
				q := queries[i]
				got := a.ShortestPathExcluding(q.s, q.u, q.excl)
				if !reflect.DeepEqual(got, wantSP[i]) {
					errs <- "concurrent ShortestPathExcluding diverged from sequential result"
					return
				}
				if rng.Intn(8) == 0 {
					if a.Connectivity() != wantConn {
						errs <- "concurrent Connectivity diverged"
						return
					}
				}
				if rng.Intn(4) == 0 && q.s != q.u {
					ps := a.DisjointPaths(q.s, q.u, 1+rng.Intn(4))
					for _, p := range ps {
						if len(p) == 0 || p[0] != q.s || p[len(p)-1] != q.u {
							errs <- "concurrent DisjointPaths returned malformed path"
							return
						}
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if after := g.String(); after != before {
		t.Errorf("shared analysis mutated the graph:\nbefore: %s\nafter:  %s", before, after)
	}
}
