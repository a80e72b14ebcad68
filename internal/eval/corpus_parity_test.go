package eval

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"lbcast/internal/check"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
	"lbcast/internal/worlds"
)

// TestWorldCorpusParity is the world-corpus harness (DESIGN.md §6): it runs
// every Algorithm 1 and 3 world of testdata/worlds once per execution path
// and applies every judge to the runs. Paths:
//
//   - product: the Session path on a fresh private analysis;
//   - dynamic: forced dynamic flooding on fresh unpooled state;
//   - pooled: one pass over the corpus in file order, three runs per world
//     back to back — observed, observer-free, observed — on one analysis
//     shared by every world of the graph, rendering no trace until the
//     pass ends (rendering allocates enough to collect pooled state). So
//     each world recycles its own run state and meets the state of the
//     world before it: world names lead with the faulty placement, so one
//     placement under two fault kinds runs back to back;
//   - batch: every world that shares batch parameters packed into one
//     RunBatch, one lane each.
//
// Every run builds fresh adversaries. Judges: equal traces (the golden
// files' JSON-lines SHA-256 encoding) and outcomes on every observed run,
// the golden file's bytes where the world has one, the observer-free
// outcome equal to the observed one, each batch lane equal to its world's
// session outcome, the phase-structure facts at every phase end of every
// run, and consensus wherever internal/check says the conditions hold.
// Once per pass, the masked, replay and overlay paths and the run pool
// must have been engaged (subtests engaged/masked, /replay, /overlay and
// /pool). Algorithm 2 worlds stay on the root package's
// golden Session path: no phase structure, and each costs about a second.
func TestWorldCorpusParity(t *testing.T) {
	corpus, err := worlds.Load(filepath.Join("..", "..", "testdata", "worlds"))
	if err != nil {
		t.Fatal(err)
	}
	h := &corpusHarness{pc: checkPhaseStructure(t)}
	plans0 := flood.ReadPlanStats()
	hits0, _ := ReadPoolStats()

	graphs := map[string]*graph.Graph{}
	var cws []*corpusWorld
	for i := range corpus {
		w := &corpus[i]
		if w.Algorithm == int(Algo2) {
			continue
		}
		g := graphs[w.Graph]
		if g == nil {
			g = w.NewGraph()
			graphs[w.Graph] = g
		}
		cw := &corpusWorld{w: w, g: g}
		if cw.golden, err = worlds.ReadGolden(filepath.Join("..", "..", "testdata", "golden"), w.Name); err != nil {
			t.Fatal(err)
		}
		if w.Algorithm == int(Algo3) {
			cw.feasible = check.Hybrid(g, w.F, w.T).OK
		} else {
			cw.feasible = check.LocalBroadcast(g, w.F).OK
		}
		if t.Run(w.Name, func(t *testing.T) { h.sessionPaths(t, cw) }) {
			cws = append(cws, cw)
		}
	}
	t.Run("pooled", func(t *testing.T) { h.pooledPass(t, cws) })
	var keys []string
	batches := map[string][]*corpusWorld{}
	for _, cw := range cws {
		w := cw.w
		key := fmt.Sprintf("%s f=%d t=%d alg=%d model=%q equiv=%v rounds=%d full=%v",
			w.Graph, w.F, w.T, w.Algorithm, w.Model, w.Equivocators, w.Rounds, w.FullBudget)
		if batches[key] == nil {
			keys = append(keys, key)
		}
		batches[key] = append(batches[key], cw)
	}
	for _, key := range keys {
		t.Run("batch "+key, func(t *testing.T) { h.batchLanes(t, batches[key]) })
	}

	plans := flood.ReadPlanStats()
	hits, _ := ReadPoolStats()
	t.Run("engaged", func(t *testing.T) {
		for _, c := range []struct {
			path    string
			engaged bool
			what    string
		}{
			{"masked", plans.MaskedCompiles > plans0.MaskedCompiles, "no masked plans compiled: the crash worlds did not take the masked path"},
			{"replay", plans.ReplaySessions > plans0.ReplaySessions, "no replay sessions recorded"},
			{"overlay", plans.DeltaReplaySessions > plans0.DeltaReplaySessions, "no overlay sessions recorded: the value-faulty worlds did not take the overlay"},
			{"pool", hits > hits0, "run pool never hit over the pooled pass"},
		} {
			t.Run(c.path, func(t *testing.T) {
				h.checks++
				if !c.engaged {
					t.Error(c.what)
				}
			})
		}
	})
	t.Logf("%d (world, path, judge) checks over %d worlds", h.checks, len(cws))
}

// corpusWorld is one phase-based corpus world: its graph (one per graph
// spec), its golden file (nil without one), whether the paper's
// conditions hold for it, and its product run, which every other path
// must reproduce.
type corpusWorld struct {
	w         *worlds.World
	g         *graph.Graph
	golden    *worlds.Golden
	feasible  bool
	want      Outcome
	wantTrace string
}

// spec builds the world's Spec with fresh adversaries.
func (cw *corpusWorld) spec() Spec {
	w := cw.w
	return Spec{G: cw.g, F: w.F, T: w.T, Algorithm: Algorithm(w.Algorithm), Model: w.SimModel(),
		Equivocators: w.EquivocatorSet(), InputSlab: w.Slab(cw.g.N()), Byzantine: w.NewByzantine(cw.g),
		Rounds: w.Rounds, FullBudget: w.FullBudget}
}

type corpusHarness struct {
	pc     *phaseChecker
	checks int
}

// recorded is one run: its recorder (nil for an observer-free run) and
// its outcome.
type recorded struct {
	rec *sim.Recorder
	out Outcome
}

// golden is a recorded run in the golden-file representation.
func (r recorded) golden() *worlds.Golden {
	g := &worlds.Golden{
		Decisions:     r.out.Decisions,
		Agreement:     r.out.Agreement,
		Validity:      r.out.Validity,
		Termination:   r.out.Termination,
		Rounds:        r.out.Rounds,
		RoundBudget:   r.out.Budget,
		Transmissions: r.out.Metrics.Transmissions,
		Deliveries:    r.out.Metrics.Deliveries,
	}
	g.SetTrace(r.rec.Transmissions())
	return g
}

// run executes one fresh spec of cw on topo and applies the per-run
// judges: the phase structure (the hook checks every phase end; here fact
// (i) must have been asserted when the run is fault-free or runs its full
// budget, since a faulty early-terminating run may decide before it
// reaches the phase of its faulty set) and consensus where the conditions
// hold.
func (h *corpusHarness) run(t *testing.T, cw *corpusWorld, topo *graph.Analysis, observe, dynamic bool) recorded {
	t.Helper()
	spec := cw.spec()
	spec.forceDynamic = dynamic
	var r recorded
	if observe {
		r.rec = &sim.Recorder{}
		spec.Observer = r.rec
	}
	phases := h.pc.agreementPhases
	s, err := newSessionShared(spec, topo)
	if err != nil {
		t.Fatal(err)
	}
	if r.out, err = s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(spec.Byzantine) == 0 || spec.FullBudget {
		h.checks++
		if h.pc.agreementPhases == phases {
			t.Errorf("%s: fact (i) was never asserted", cw.w.Name)
		}
	}
	if cw.feasible && len(cw.w.Faults) <= cw.w.F {
		h.checks++
		if !r.out.OK() {
			t.Errorf("%s: consensus failed where the conditions hold: %+v", cw.w.Name, r.out)
		}
	}
	return r
}

// same requires an observed run of cw to reproduce its product run.
func (h *corpusHarness) same(t *testing.T, cw *corpusWorld, path string, r recorded) {
	t.Helper()
	h.checks += 2
	if d := r.golden().TraceSHA256; d != cw.wantTrace {
		t.Errorf("%s %s: trace digest %s, product path %s", cw.w.Name, path, d, cw.wantTrace)
	}
	if got, want := fmt.Sprintf("%+v", r.out), fmt.Sprintf("%+v", cw.want); got != want {
		t.Errorf("%s %s: outcome diverges from the product path:\ngot:  %s\nwant: %s", cw.w.Name, path, got, want)
	}
}

// sessionPaths runs the product path, judges it against the golden file,
// and holds the forced-dynamic path to it.
func (h *corpusHarness) sessionPaths(t *testing.T, cw *corpusWorld) {
	private := graph.NewAnalysis(cw.g)
	if !t.Run("product", func(t *testing.T) {
		r := h.run(t, cw, private, true, false)
		got := r.golden()
		cw.want, cw.wantTrace = r.out, got.TraceSHA256
		if cw.golden != nil {
			h.checks++
			if !bytes.Equal(got.JSON(), cw.golden.JSON()) {
				t.Errorf("diverges from golden %s.json:\ngot:  %s\nwant: %s", cw.w.Name, got.JSON(), cw.golden.JSON())
			}
		}
	}) {
		t.FailNow()
	}
	t.Run("dynamic", func(t *testing.T) {
		h.same(t, cw, "dynamic", h.run(t, cw, private, true, true))
	})
}

// pooledPass runs every world three times back to back on its graph's
// shared analysis, then judges each world's runs in a subtest of its own.
func (h *corpusHarness) pooledPass(t *testing.T, cws []*corpusWorld) {
	shared := map[*graph.Graph]*graph.Analysis{}
	runs := make([][3]recorded, len(cws))
	for i, cw := range cws {
		topo := shared[cw.g]
		if topo == nil {
			topo = graph.NewAnalysis(cw.g)
			shared[cw.g] = topo
		}
		for k := range runs[i] {
			runs[i][k] = h.run(t, cw, topo, k != 1, false)
		}
	}
	for i, cw := range cws {
		t.Run(cw.w.Name, func(t *testing.T) {
			h.same(t, cw, "pooled run 1", runs[i][0])
			h.same(t, cw, "pooled run 3", runs[i][2])
			h.checks++
			if got, want := fmt.Sprintf("%+v", runs[i][1].out), fmt.Sprintf("%+v", cw.want); got != want {
				t.Errorf("%s: observer-free outcome diverges:\ngot:  %s\nwant: %s", cw.w.Name, got, want)
			}
		})
	}
}

// batchLanes packs worlds that share batch parameters into one RunBatch
// and requires every lane to decide as its world's session did.
func (h *corpusHarness) batchLanes(t *testing.T, cws []*corpusWorld) {
	first := cws[0].spec()
	spec := BatchSpec{G: first.G, F: first.F, T: first.T, Algorithm: first.Algorithm, Model: first.Model,
		Equivocators: first.Equivocators, Rounds: first.Rounds, FullBudget: first.FullBudget}
	// Fact (i) is asserted once per lane that reaches the phase of its
	// faulty set (see run); count the lanes certain to.
	certain := 0
	for _, cw := range cws {
		s := cw.spec()
		spec.Instances = append(spec.Instances, BatchInstance{InputSlab: s.InputSlab, Byzantine: s.Byzantine})
		if len(s.Byzantine) == 0 || s.FullBudget {
			certain++
		}
	}
	phases := h.pc.agreementPhases
	out, err := RunBatch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	h.checks++
	if n := h.pc.agreementPhases - phases; n < certain {
		t.Errorf("fact (i) asserted %d times, want at least %d", n, certain)
	}
	for i, cw := range cws {
		h.checks++
		if got, want := project(out.Outcomes[i]), project(cw.want); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: batch lane %+v, session %+v", cw.w.Name, got, want)
		}
	}
}
