package eval

import (
	"math/bits"
	"math/rand"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// FuzzReplayParity is the differential harness behind every replay tier:
// it decodes the fuzz input into a random connected graph and a random
// fault pattern (crash-from-start, tampering, forging, or a mix), runs the
// spec once with replay enabled — which routes through wholesale, masked,
// or delta replay depending on the pattern — and once with replay forced
// off onto the dynamic message-by-message path, and fails on any
// divergence between the two SHA-256 trace digests. Adversaries are
// rebuilt per run so their RNG streams are identical on both sides; a
// spec both sides reject identically is skipped, a one-sided rejection is
// a failure. The seed corpus in testdata/fuzz/FuzzReplayParity pins one
// world per replay tier.
func FuzzReplayParity(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0), uint16(0), uint8(0))          // benign, smallest graph
	f.Add(int64(17), uint8(2), uint16(5), uint16(1<<14|9), uint8(0))   // crash-only: masked replay
	f.Add(int64(23), uint8(3), uint16(11), uint16(6), uint8(1))        // tamper: delta replay
	f.Add(int64(5), uint8(4), uint16(700), uint16(1<<15|42), uint8(2)) // forger pair: delta replay
	f.Add(int64(99), uint8(1), uint16(3), uint16(1<<14|27), uint8(9))  // mixed crash+tamper: delta replay
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, edgeBits, faultBits uint16, strat uint8) {
		checkPhaseStructure(t)
		world := decodeFuzzWorld(seed, nRaw, edgeBits, faultBits, strat)

		on, errOn := runFuzzTraced(world, false)
		off, errOff := runFuzzTraced(world, true)
		if (errOn != nil) != (errOff != nil) {
			t.Fatalf("one-sided rejection: replay on err=%v, replay off err=%v", errOn, errOff)
		}
		if errOn != nil {
			t.Skip("spec rejected by both paths")
		}
		if traceDigest(on) != traceDigest(off) {
			t.Fatalf("replayed trace diverges from forced-dynamic trace\nreplay on:\n%s\nreplay off:\n%s", on, off)
		}
	})
}

// fuzzWorld is a decoded fuzz input: the graph and everything needed to
// rebuild the spec (including fresh stateful adversaries) once per side.
type fuzzWorld struct {
	g      *graph.Graph
	alg    Algorithm
	f      int
	inputs map[graph.NodeID]sim.Value
	seed   int64
	faults []fuzzFault
}

type fuzzFault struct {
	u    graph.NodeID
	kind uint8 // 0 silent, 1 tamper, 2 forge
}

// decodeFuzzWorld maps the raw fuzz arguments onto a connected graph of
// 4-8 nodes (random spanning tree plus extra random edges) and a fault
// pattern of one or two distinct vertices with per-vertex strategies.
func decodeFuzzWorld(seed int64, nRaw uint8, edgeBits, faultBits uint16, strat uint8) fuzzWorld {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + int(nRaw)%5
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(graph.NodeID(rng.Intn(v)), graph.NodeID(v))
	}
	for k := bits.OnesCount16(edgeBits); k > 0; k-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	w := fuzzWorld{
		g:      g,
		alg:    Algo1,
		inputs: make(map[graph.NodeID]sim.Value, n),
		seed:   seed,
	}
	if strat&0x40 != 0 {
		w.alg = Algo3
	}
	for u := 0; u < n; u++ {
		w.inputs[graph.NodeID(u)] = sim.Value((int(faultBits) >> u) & 1)
	}
	fc := 0
	if faultBits&(1<<14) != 0 {
		fc++
	}
	if faultBits&(1<<15) != 0 {
		fc++
	}
	perm := rng.Perm(n)
	for i := 0; i < fc; i++ {
		w.faults = append(w.faults, fuzzFault{
			u:    graph.NodeID(perm[i]),
			kind: (strat >> (2 * i)) % 3,
		})
	}
	w.f = fc
	if w.f == 0 {
		w.f = 1
	}
	return w
}

// runFuzzTraced builds the world's spec with fresh adversaries and runs it
// traced on a fresh analysis.
func runFuzzTraced(w fuzzWorld, disableReplay bool) (string, error) {
	spec := Spec{
		G:            w.g,
		F:            w.f,
		Algorithm:    w.alg,
		Inputs:       w.inputs,
		forceDynamic: disableReplay,
	}
	if len(w.faults) > 0 {
		phaseLen := lbPhaseRounds(w.g.N())
		spec.Byzantine = make(map[graph.NodeID]sim.Node, len(w.faults))
		for _, ft := range w.faults {
			switch ft.kind {
			case 0:
				spec.Byzantine[ft.u] = &adversary.SilentNode{Me: ft.u}
			case 1:
				spec.Byzantine[ft.u] = adversary.NewTamper(w.g, ft.u, phaseLen, w.seed)
			default:
				spec.Byzantine[ft.u] = adversary.NewForger(w.g, ft.u, phaseLen, w.seed)
			}
		}
	}
	rec := &sim.Recorder{}
	spec.Observer = rec
	out, err := Run(spec)
	if err != nil {
		return "", err
	}
	return traceString(rec, out), nil
}
