package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/core"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// hintLiar is a Byzantine sender that relays exactly what its inner
// tampering node relays — same bodies, same paths, same random stream — and
// lies about path identity: every emitted message's hint (and, for the
// slice lies, the slice beside it) is rewritten according to mode. Mode 0
// keeps the inner node's honest hints. Mode transcriptLies leaves the
// emitted messages alone and lies inside the Algorithm 2 transcripts it
// relays instead, cycling every entry through the wire modes.
type hintLiar struct {
	inner *adversary.TamperNode
	mode  uint8
	// foreign numbers paths in an arena no node of the run uses.
	foreign *graph.PathArena
	plan    *flood.Plan
	emitted int
}

// hintLiarModes counts the wire modes (0 honest, then six lies).
const hintLiarModes = 7

// transcriptLies is the mode that lies in relayed transcript entries.
const transcriptLies = hintLiarModes

func (n *hintLiar) ID() graph.NodeID { return n.inner.ID() }

// SetPlan is what eval offers an arena-walking adversary; the liar passes
// it on, so that mode 0 emits hints the honest nodes verify.
func (n *hintLiar) SetPlan(p *flood.Plan) {
	n.plan = p
	n.inner.SetPlan(p)
}

func (n *hintLiar) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	out := n.inner.Step(round, inbox)
	lied := make([]sim.Outgoing, len(out))
	for i, o := range out {
		m := o.Payload.(flood.Msg)
		n.emitted++
		if n.mode == transcriptLies {
			if tb, ok := m.Body.(core.TranscriptBody); ok {
				entries := slices.Clone(tb.Entries)
				for k := range entries {
					entries[k].Msg = n.lie(entries[k].Msg, uint8(1+k%(hintLiarModes-1)), tb.Observed, k)
				}
				tb.Entries = entries
				m.Body = tb
			}
		} else {
			m = n.lie(m, n.mode, n.ID(), n.emitted)
		}
		lied[i] = sim.Outgoing{To: o.To, Payload: m}
	}
	return lied
}

// lie rewrites the path claim of message m, transmitted by sender, per
// wire mode; k varies the lie between calls.
func (n *hintLiar) lie(m flood.Msg, mode uint8, sender graph.NodeID, k int) flood.Msg {
	switch mode {
	case 1: // no claim
		m.Hint = graph.NoPath
	case 2: // out of range, either side
		m.Hint = math.MaxInt32
		if k%2 == 0 {
			m.Hint = math.MinInt32
		}
	case 3: // an id of another arena
		m.Hint = n.foreign.Extend(n.foreign.Intern(m.Pi), sender)
	case 4: // another path of the receivers' arena
		m.Hint = graph.PathID(k % 97)
	case 5: // the right id beside a slice that is not the arena's
		m.Pi = m.Pi.Clone()
	case 6: // the true claim of another relay of the same Π
		if n.plan != nil && len(m.Pi) > 0 && n.plan.Arena().IsExtension(m.Hint, m.Pi, sender) {
			a := n.plan.Arena()
			for _, w := range a.Graph().AdjList(m.Pi[len(m.Pi)-1]) {
				if ext := a.Extend(a.Parent(m.Hint), w); w != sender && ext != graph.NoPath {
					m.Hint = ext
					break
				}
			}
		}
	}
	return m
}

// FuzzHintSoundness is the differential harness of the wire hint, in the
// corpus style of FuzzReplayParity: it decodes the fuzz input into a random
// connected graph with one or two faults, plants a hintLiar on the first
// faulty vertex, and runs the world once per lying mode — on the delta tier,
// where honest nodes and the liar's inner node share the plan arena, so the
// lies are about the very ids the receivers would verify — and once forced
// dynamic, where every arena is private. Every run must produce the trace
// of the honest-hint run: a lying hint is indistinguishable from no hint,
// and nothing panics.
func FuzzHintSoundness(f *testing.F) {
	f.Add(int64(23), uint8(3), uint16(11), uint16(1<<14|6), uint8(1))
	f.Add(int64(57), uint8(6), uint16(1023), uint16(1<<15|1<<14|18), uint8(5))
	f.Add(int64(5), uint8(4), uint16(700), uint16(1<<15|42), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, edgeBits, faultBits uint16, strat uint8) {
		world := decodeFuzzWorld(seed, nRaw, edgeBits, faultBits|1<<14, strat)
		run := func(mode uint8, disableReplay bool) (string, error) {
			spec := Spec{G: world.g, F: world.f, Algorithm: world.alg, Inputs: world.inputs, forceDynamic: disableReplay}
			phaseLen := lbPhaseRounds(world.g.N())
			spec.Byzantine = map[graph.NodeID]sim.Node{}
			for i, ft := range world.faults {
				var nd sim.Node = adversary.NewForger(world.g, ft.u, phaseLen, world.seed)
				if i == 0 {
					nd = &hintLiar{
						inner:   adversary.NewTamper(world.g, ft.u, phaseLen, world.seed),
						mode:    mode,
						foreign: graph.NewPathArena(world.g),
					}
				}
				spec.Byzantine[ft.u] = nd
			}
			rec := &sim.Recorder{}
			spec.Observer = rec
			out, err := Run(spec)
			if err != nil {
				return "", err
			}
			return traceString(rec, out), nil
		}
		want, err := run(0, false)
		if err != nil {
			t.Skip("spec rejected")
		}
		for _, dynamic := range []bool{false, true} {
			for mode := uint8(0); mode < hintLiarModes; mode++ {
				got, err := run(mode, dynamic)
				if err != nil {
					t.Fatalf("mode %d dynamic %v: %v", mode, dynamic, err)
				}
				if traceDigest(got) != traceDigest(want) {
					t.Fatalf("lying mode %d (forced dynamic: %v) changed the execution\nhonest hints:\n%s\nlying:\n%s", mode, dynamic, want, got)
				}
			}
		}
	})
}

// TestAlgo2HintSoundness is FuzzHintSoundness for Algorithm 2, whose
// worlds the fuzzer never draws: the tamper fault of figure1a (f=1) and
// figure1b (f=2), wrapped in a hintLiar, runs once per lying mode — every
// wire mode, and transcriptLies, whose lies reach honest nodes inside the
// phase-2 reports they identify faults from. Every run must produce the
// trace of the honest-hint run.
func TestAlgo2HintSoundness(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		f      int
		faulty graph.NodeID
	}{
		{"figure1a", gen.Figure1a(), 1, 2},
		{"figure1b", gen.Figure1b(), 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inputs := make(map[graph.NodeID]sim.Value, tc.g.N())
			for u := range tc.g.N() {
				inputs[graph.NodeID(u)] = sim.Value(u % 2)
			}
			run := func(mode uint8) string {
				liar := &hintLiar{
					inner:   adversary.NewTamper(tc.g, tc.faulty, core.PhaseRounds(tc.g.N()), 5),
					mode:    mode,
					foreign: graph.NewPathArena(tc.g),
				}
				dig := newTraceDigest()
				out, err := Run(Spec{G: tc.g, F: tc.f, Algorithm: Algo2, Inputs: inputs,
					Byzantine: map[graph.NodeID]sim.Node{tc.faulty: liar}, Observer: dig})
				if err != nil {
					t.Fatal(err)
				}
				return dig.sum(out)
			}
			want := run(0)
			for mode := uint8(1); mode <= transcriptLies; mode++ {
				if got := run(mode); got != want {
					t.Fatalf("lying mode %d changed the execution: trace %s, want %s", mode, got, want)
				}
			}
		})
	}
}

// traceDigestObserver hashes a run's transmissions as they happen, in
// traceString's format. Algorithm 2's phase-2 payloads render to
// kilobytes each, so the rendering of a transcript seen before is reused
// instead of being kept or rebuilt.
type traceDigestObserver struct {
	sim.NoopObserver
	h        hash.Hash
	rendered map[transcriptRef]string
}

// transcriptRef identifies a transcript body by its slice: a slice pins
// its immutable contents.
type transcriptRef struct {
	first    *core.TranscriptEntry
	n        int
	observed graph.NodeID
}

func newTraceDigest() *traceDigestObserver {
	return &traceDigestObserver{h: sha256.New(), rendered: make(map[transcriptRef]string)}
}

func (d *traceDigestObserver) Transmission(tr sim.Transmission) {
	key := ""
	if m, ok := tr.Payload.(flood.Msg); ok {
		if tb, ok := m.Body.(core.TranscriptBody); ok && len(tb.Entries) > 0 {
			ref := transcriptRef{&tb.Entries[0], len(tb.Entries), tb.Observed}
			body, seen := d.rendered[ref]
			if !seen {
				body = tb.Key()
				d.rendered[ref] = body
			}
			key = body + "@" + m.Pi.Key()
		}
	}
	if key == "" {
		key = tr.Payload.Key()
	}
	fmt.Fprintf(d.h, "r%d %d->%v %s\n", tr.Round, tr.From, tr.Receivers, key)
}

// sum closes the digest with the outcome and returns it in hex.
func (d *traceDigestObserver) sum(out Outcome) string {
	fmt.Fprintf(d.h, "outcome %+v\n", out)
	return hex.EncodeToString(d.h.Sum(nil))
}
