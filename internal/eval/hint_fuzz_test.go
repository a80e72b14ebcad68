package eval

import (
	"math"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// hintLiar is a Byzantine sender that relays exactly what its inner
// tampering node relays — same bodies, same paths, same random stream — and
// lies about path identity: every emitted message's hint (and, for the
// slice lies, the slice beside it) is rewritten according to mode. Mode 0
// keeps the inner node's honest hints.
type hintLiar struct {
	inner *adversary.TamperNode
	mode  uint8
	// foreign numbers paths in an arena no node of the run uses.
	foreign *graph.PathArena
	plan    *flood.Plan
	emitted int
}

const hintLiarModes = 7

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
		switch n.mode {
		case 1: // no claim
			m.Hint = graph.NoPath
		case 2: // out of range, either side
			m.Hint = math.MaxInt32
			if n.emitted%2 == 0 {
				m.Hint = math.MinInt32
			}
		case 3: // an id of another arena
			m.Hint = n.foreign.Extend(n.foreign.Intern(m.Pi), n.ID())
		case 4: // another path of the receivers' arena
			m.Hint = graph.PathID(n.emitted % 97)
		case 5: // the right id beside a slice that is not the arena's
			m.Pi = m.Pi.Clone()
		case 6: // the true claim of another relay of the same Π
			if n.plan != nil && len(m.Pi) > 0 {
				a := n.plan.Arena()
				for _, w := range a.Graph().AdjList(m.Pi[len(m.Pi)-1]) {
					if ext := a.Extend(a.Parent(m.Hint), w); w != n.ID() && ext != graph.NoPath {
						m.Hint = ext
						break
					}
				}
			}
		}
		lied[i] = sim.Outgoing{To: o.To, Payload: m}
	}
	return lied
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
