package lbcast

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lbcast/internal/worlds"
)

// The golden parity suite runs every world of the corpus (testdata/worlds)
// that has a golden file (testdata/golden, same name) through the public
// Session and requires the recorded execution to match the file
// byte for byte (see internal/worlds for what a golden file pins).
// Representation changes (path interning, integer-keyed dedup, indexed
// receipt stores, replay tiers) must keep every one identical; run with
// -update-golden only for a change that is intentionally allowed to alter
// executions. To pin a new world, create its golden file (any content)
// and run -update-golden.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden parity files from the current implementation")

var goldenDir = filepath.Join("testdata", "golden")

// goldenWorld is one corpus world with a golden file, and the file's bytes.
type goldenWorld struct {
	w    worlds.World
	want []byte
}

func goldenWorlds(t *testing.T) []goldenWorld {
	t.Helper()
	corpus, err := worlds.Load(filepath.Join("testdata", "worlds"))
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenWorld
	for _, w := range corpus {
		want, err := os.ReadFile(worlds.GoldenPath(goldenDir, w.Name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenWorld{w, want})
	}
	if len(out) == 0 {
		t.Fatal("no corpus world has a golden file")
	}
	return out
}

// options translates a world into Session options, with fresh adversaries
// so that stateful ones (tamper, forge) restart identically every time.
func options(w *worlds.World, g *Graph) []Option {
	inputs := make(map[NodeID]Value, g.N())
	for u, v := range w.Slab(g.N()) {
		inputs[NodeID(u)] = v
	}
	opts := []Option{WithFaults(w.F), WithEquivocating(w.T), WithAlgorithm(AlgorithmChoice(w.Algorithm)),
		WithModel(w.SimModel()), WithInputs(inputs), WithEquivocators(w.EquivocatorSet()), WithRoundBudget(w.Rounds)}
	if byz := w.NewByzantine(g); byz != nil {
		opts = append(opts, WithByzantine(byz))
	}
	if w.FullBudget {
		opts = append(opts, WithFullBudget())
	}
	return opts
}

// goldenFromRun canonicalizes one recorded execution (judged result plus
// its transmission trace) into the golden-file representation.
func goldenFromRun(res Result, recs []Transmission) []byte {
	out := worlds.Golden{
		Decisions:     res.Decisions,
		Agreement:     res.Agreement,
		Validity:      res.Validity,
		Termination:   res.Termination,
		Rounds:        res.Rounds,
		RoundBudget:   res.RoundBudget,
		Transmissions: res.Transmissions,
		Deliveries:    res.Deliveries,
	}
	out.SetTrace(recs)
	return out.JSON()
}

// TestGoldenParityRecycled reruns the fault-free golden worlds twice on
// ONE Session: the first Run warms the session's run pool, the second
// executes on recycled state (pooled engine, receipt stores, replay
// blackboards), and both executions must still match the checked-in
// golden bytes exactly. Worlds with faults are skipped here: their
// adversaries advance RNG state across runs, so reruns on one Session are
// intentionally not trace-reproducible (recycled Byzantine worlds are
// covered by eval's TestWorldCorpusParity, which rebuilds adversaries per
// run).
func TestGoldenParityRecycled(t *testing.T) {
	if *updateGolden {
		t.Skip("golden files are being rewritten by TestGoldenParity")
	}
	for _, gw := range goldenWorlds(t) {
		t.Run(gw.w.Name, func(t *testing.T) {
			if len(gw.w.Faults) > 0 {
				t.Skip("stateful adversaries are not rerunnable on one session")
			}
			g := gw.w.NewGraph()
			rec := &TraceRecorder{}
			s, err := NewSession(g, append(options(&gw.w, g), WithObserver(rec))...)
			if err != nil {
				t.Fatal(err)
			}
			prev := 0
			for pass := 0; pass < 2; pass++ {
				res, err := s.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				recs := rec.Transmissions()
				got := goldenFromRun(res, recs[prev:])
				prev = len(recs)
				if !bytes.Equal(got, gw.want) {
					t.Errorf("pass %d diverges from golden %s.json:\ngot:  %s\nwant: %s", pass, gw.w.Name, got, gw.want)
				}
			}
		})
	}
}

func TestGoldenParity(t *testing.T) {
	for _, gw := range goldenWorlds(t) {
		t.Run(gw.w.Name, func(t *testing.T) {
			g := gw.w.NewGraph()
			rec := &TraceRecorder{}
			s, err := NewSession(g, append(options(&gw.w, g), WithObserver(rec))...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got := goldenFromRun(res, rec.Transmissions())
			path := worlds.GoldenPath(goldenDir, gw.w.Name)
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if !bytes.Equal(got, gw.want) {
				t.Errorf("execution diverges from golden %s\ngot:  %s\nwant: %s", path, got, gw.want)
			}
		})
	}
}
