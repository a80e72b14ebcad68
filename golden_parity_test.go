package lbcast

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/eval"
	"lbcast/internal/sim"
)

// The golden parity suite pins the observable behavior of fixed scenarios —
// decisions, rounds, round budget, metrics, and the complete canonical
// transmission trace (which fixes delivery order, since the engine delivers
// in trace order) — against checked-in golden files generated before the
// compact message-identity refactor. Representation changes (path interning,
// integer-keyed dedup, indexed receipt stores, engine worker pool) must keep
// every scenario byte-identical; run with -update-golden only for a change
// that is intentionally allowed to alter executions.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden parity files from the current implementation")

// goldenTransmission is one physical transmission in canonical trace order.
type goldenTransmission struct {
	Round     int      `json:"round"`
	From      NodeID   `json:"from"`
	Receivers []NodeID `json:"receivers"`
	Payload   string   `json:"payload"`
}

// goldenRun is the full recorded execution of one scenario. The complete
// canonical transmission trace is always pinned via its SHA-256 digest;
// traces small enough to diff by eye are additionally stored inline.
type goldenRun struct {
	Decisions     map[NodeID]Value     `json:"decisions"`
	Agreement     bool                 `json:"agreement"`
	Validity      bool                 `json:"validity"`
	Termination   bool                 `json:"termination"`
	Rounds        int                  `json:"rounds"`
	RoundBudget   int                  `json:"round_budget"`
	Transmissions int                  `json:"transmissions"`
	Deliveries    int                  `json:"deliveries"`
	TraceLen      int                  `json:"trace_len"`
	TraceSHA256   string               `json:"trace_sha256"`
	Trace         []goldenTransmission `json:"trace,omitempty"`
}

// maxInlineTrace bounds the transmissions stored verbatim in a golden file;
// larger traces (transcript payloads run to megabytes) keep only the digest.
const maxInlineTrace = 600

// goldenScenario builds a fresh option list per run so that stateful
// adversaries (tamper, forge) restart identically for every execution.
type goldenScenario struct {
	name  string
	graph func() *Graph
	opts  func(g *Graph) []Option
}

func goldenScenarios(t *testing.T) []goldenScenario {
	t.Helper()
	alternating := func(n int) map[NodeID]Value {
		m := make(map[NodeID]Value, n)
		for i := 0; i < n; i++ {
			m[NodeID(i)] = Value(i % 2)
		}
		return m
	}
	complete5 := func() *Graph {
		g, err := Complete(5)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	return []goldenScenario{
		{"algo1-figure1a-benign", Figure1a, func(g *Graph) []Option {
			return []Option{WithFaults(1), WithInputs(alternating(g.N()))}
		}},
		{"algo1-figure1a-full-budget", Figure1a, func(g *Graph) []Option {
			return []Option{WithFaults(1), WithInputs(alternating(g.N())), WithFullBudget()}
		}},
		{"algo1-figure1a-silent", Figure1a, func(g *Graph) []Option {
			return []Option{WithFaults(1), WithInputs(alternating(g.N())),
				WithByzantine(map[NodeID]Node{2: NewSilentFault(2)})}
		}},
		{"algo1-figure1a-tamper", Figure1a, func(g *Graph) []Option {
			return []Option{WithFaults(1), WithInputs(alternating(g.N())),
				WithByzantine(map[NodeID]Node{2: NewTamperFault(g, 2, PhaseRounds(g), 42)})}
		}},
		{"algo1-figure1a-forge", Figure1a, func(g *Graph) []Option {
			return []Option{WithFaults(1), WithInputs(alternating(g.N())),
				WithByzantine(map[NodeID]Node{2: adversary.NewForger(g, 2, PhaseRounds(g), 7)})}
		}},
		{"algo1-figure1b-f2-benign", Figure1b, func(g *Graph) []Option {
			return []Option{WithFaults(2), WithInputs(alternating(g.N()))}
		}},
		{"algo1-figure1b-f2-tamper", Figure1b, func(g *Graph) []Option {
			return []Option{WithFaults(2), WithInputs(alternating(g.N())),
				WithByzantine(map[NodeID]Node{1: NewTamperFault(g, 1, PhaseRounds(g), 9), 4: NewSilentFault(4)})}
		}},
		{"algo1-figure1b-f2-crash2", Figure1b, func(g *Graph) []Option {
			// Pure crash world: both faults silent from round zero. This is
			// the masked-plan replay shape — the golden bytes were recorded
			// from the dynamic path before masked replay existed, so replay
			// is compared against pre-change behavior, not against itself.
			return []Option{WithFaults(2), WithInputs(alternating(g.N())),
				WithByzantine(map[NodeID]Node{2: NewSilentFault(2), 6: NewSilentFault(6)})}
		}},
		{"algo1-figure1b-f2-crash-tamper", Figure1b, func(g *Graph) []Option {
			// Mixed crash + tamper: the delta-plan replay shape (a crashed
			// node beside a value-corrupting one forces the taint frontier
			// to cover both kinds). Recorded from the pre-change dynamic
			// path, like crash2 above.
			return []Option{WithFaults(2), WithInputs(alternating(g.N())),
				WithByzantine(map[NodeID]Node{2: NewTamperFault(g, 2, PhaseRounds(g), 11), 6: NewSilentFault(6)})}
		}},
		{"algo2-figure1a-benign", Figure1a, func(g *Graph) []Option {
			return []Option{WithFaults(1), WithAlgorithm(Algorithm2), WithInputs(alternating(g.N()))}
		}},
		{"algo2-figure1b-tamper", Figure1b, func(g *Graph) []Option {
			return []Option{WithFaults(2), WithAlgorithm(Algorithm2), WithInputs(alternating(g.N())),
				WithByzantine(map[NodeID]Node{3: NewTamperFault(g, 3, PhaseRounds(g), 5)})}
		}},
		{"algo2-figure1b-hybrid-equivocate", Figure1b, func(g *Graph) []Option {
			// The worst-case identity workload under the hybrid model: a
			// tamperer plus an equivocator whose per-neighbor splits exercise
			// every transcript/dedup path the string→ID migration touches.
			return []Option{WithFaults(2), WithAlgorithm(Algorithm2), WithModel(Hybrid),
				WithInputs(alternating(g.N())),
				WithByzantine(map[NodeID]Node{
					3: NewTamperFault(g, 3, PhaseRounds(g), 5),
					6: NewEquivocatorFault(g, 6, PhaseRounds(g)),
				}),
				WithEquivocators(NewSet(6))}
		}},
		{"algo3-k5-equivocate", complete5, func(g *Graph) []Option {
			return []Option{WithFaults(1), WithEquivocating(1), WithAlgorithm(Algorithm3),
				WithModel(Hybrid), WithInputs(alternating(g.N())),
				WithByzantine(map[NodeID]Node{4: NewEquivocatorFault(g, 4, PhaseRounds(g))}),
				WithEquivocators(NewSet(4))}
		}},
	}
}

// runGolden executes one scenario once and captures the full observable run.
func runGolden(t *testing.T, sc goldenScenario) goldenRun {
	t.Helper()
	g := sc.graph()
	rec := &TraceRecorder{}
	s, err := NewSession(g, append(sc.opts(g), WithObserver(rec))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return goldenFromRun(t, res, rec.Transmissions())
}

// goldenFromRun canonicalizes one recorded execution (judged result plus
// its transmission trace) into the golden-file representation.
func goldenFromRun(t *testing.T, res Result, recs []sim.Transmission) goldenRun {
	t.Helper()
	out := goldenRun{
		Decisions:     res.Decisions,
		Agreement:     res.Agreement,
		Validity:      res.Validity,
		Termination:   res.Termination,
		Rounds:        res.Rounds,
		RoundBudget:   res.RoundBudget,
		Transmissions: res.Transmissions,
		Deliveries:    res.Deliveries,
	}
	h := sha256.New()
	out.TraceLen = len(recs)
	for _, tr := range recs {
		gt := goldenTransmission{
			Round:     tr.Round,
			From:      tr.From,
			Receivers: tr.Receivers,
			Payload:   tr.Payload.Key(),
		}
		line, err := json.Marshal(gt)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(line)
		h.Write([]byte{'\n'})
		if len(recs) <= maxInlineTrace {
			out.Trace = append(out.Trace, gt)
		}
	}
	out.TraceSHA256 = hex.EncodeToString(h.Sum(nil))
	return out
}

func goldenJSON(t *testing.T, run goldenRun) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(run); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenParityRecycled reruns the benign golden scenarios twice on
// ONE Session: the first Run warms the session's run pool, the second
// executes on recycled state (pooled engine, receipt stores, replay
// blackboards), and both executions must still match the checked-in
// golden bytes exactly — the byte-identity contract through pooled
// state, against the same fixtures the fresh-state suite pins.
// Byzantine scenarios are skipped here: their adversaries advance RNG
// state across runs, so reruns on one Session are intentionally not
// trace-reproducible (and dynamic runs pool via the batch path, covered
// by the eval-level pool-parity suite, which rebuilds adversaries per
// run).
func TestGoldenParityRecycled(t *testing.T) {
	if *updateGolden {
		t.Skip("golden files are being rewritten by TestGoldenParity")
	}
	for _, sc := range goldenScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			g := sc.graph()
			opts := sc.opts(g)
			var spec eval.Spec
			for _, o := range opts {
				o(&spec)
			}
			if len(spec.Byzantine) > 0 {
				t.Skip("stateful adversaries are not rerunnable on one session")
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", sc.name+".json"))
			if err != nil {
				t.Fatalf("missing golden file (generate with -update-golden): %v", err)
			}
			rec := &TraceRecorder{}
			s, err := NewSession(g, append(opts, WithObserver(rec))...)
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
				got := goldenJSON(t, goldenFromRun(t, res, recs[prev:]))
				prev = len(recs)
				if !bytes.Equal(got, want) {
					t.Errorf("pass %d diverges from golden %s.json:\ngot:  %s\nwant: %s", pass, sc.name, got, want)
				}
			}
		})
	}
}

func TestGoldenParity(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", sc.name+".json")
			got := goldenJSON(t, runGolden(t, sc))
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (generate with -update-golden): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("execution diverges from golden %s\ngot:  %s\nwant: %s", path, got, want)
			}
		})
	}
}
