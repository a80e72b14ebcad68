package eval

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// The pooled-parity suite enforces the run-pool reset contract: a run on
// recycled state must be byte-identical to a run on freshly-constructed
// state. Every scenario executes several times through ONE warmed pool
// (same shared analysis, so the same sync.Pool serves every iteration) and
// once on a private analysis whose pool has never been used; all SHA-256
// trace digests must agree. The suite also alternates observed and
// observer-free runs through the same pool entries, exercising the
// phantom/recycling toggles on recycled state — the configuration switches
// that reset must re-apply per run.

// traceDigest hashes a canonical trace rendering.
func traceDigest(trace string) string {
	h := sha256.Sum256([]byte(trace))
	return hex.EncodeToString(h[:])
}

// poolParityIters is sized so at least one pool hit is statistically
// certain even under the race detector, where sync.Pool deliberately drops
// a quarter of Puts.
const poolParityIters = 12

// TestPooledBatchMixedTraceParity is the batch analogue over the mixed
// replay-parity scenario (a replaying vector lane group multiplexed with
// two dynamic faulty instances): repeated runs through one warmed pool,
// stateful adversaries rebuilt per run, every trace digest equal to the
// fresh-state digest.
func TestPooledBatchMixedTraceParity(t *testing.T) {
	g := gen.Figure1b()
	n := g.N()
	mkInstances := func() []BatchInstance {
		insts := make([]BatchInstance, 5)
		for i := range insts {
			inputs := make(map[graph.NodeID]sim.Value, n)
			for u := 0; u < n; u++ {
				inputs[graph.NodeID(u)] = sim.Value((u + i) % 2)
			}
			insts[i] = BatchInstance{Inputs: inputs}
		}
		phaseLen := lbPhaseRounds(n)
		insts[1].Byzantine = map[graph.NodeID]sim.Node{3: adversary.NewTamper(g, 3, phaseLen, 7)}
		insts[3].Byzantine = map[graph.NodeID]sim.Node{5: &adversary.SilentNode{Me: 5}}
		return insts
	}
	runOnce := func(topo *graph.Analysis, observe bool) (string, string) {
		spec := BatchSpec{G: g, F: 2, Algorithm: Algo1, Instances: mkInstances()}
		var rec *sim.Recorder
		if observe {
			rec = &sim.Recorder{}
			spec.Observer = rec
		}
		s, err := newBatchSessionShared(spec, topo)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var sb []byte
		if observe {
			for _, tr := range rec.Transmissions() {
				sb = fmt.Appendf(sb, "r%d %d->%v %s\n", tr.Round, tr.From, tr.Receivers, tr.Payload.Key())
			}
		}
		return traceDigest(string(sb)), fmt.Sprintf("%+v", out)
	}

	freshDigest, freshOutcome := runOnce(graph.NewAnalysis(g), true)

	topo := graph.NewAnalysis(g)
	hits0, _ := ReadPoolStats()
	for i := 0; i < poolParityIters; i++ {
		observe := i%3 != 2
		d, out := runOnce(topo, observe)
		if out != freshOutcome {
			t.Fatalf("iter %d (observe=%v): recycled-state outcome diverges:\ngot:  %s\nwant: %s", i, observe, out, freshOutcome)
		}
		if observe && d != freshDigest {
			t.Fatalf("iter %d: recycled-state trace digest %s != fresh-state %s", i, d, freshDigest)
		}
	}
	if hits1, _ := ReadPoolStats(); hits1 == hits0 {
		t.Fatal("run pool never hit: recycling path was not exercised")
	}
}

// TestPooledBatchAllBenignTraceParity covers the fully-replayed vector
// batch — the steady-state serving shape the zero-alloc gate measures —
// through the same twice-through-pool lens.
func TestPooledBatchAllBenignTraceParity(t *testing.T) {
	g := gen.Figure1b()
	n := g.N()
	mkInstances := func() []BatchInstance {
		insts := make([]BatchInstance, 8)
		for i := range insts {
			inputs := make(map[graph.NodeID]sim.Value, n)
			for u := 0; u < n; u++ {
				inputs[graph.NodeID(u)] = sim.Value((u*3 + i) % 2)
			}
			insts[i] = BatchInstance{Inputs: inputs}
		}
		return insts
	}
	runOnce := func(topo *graph.Analysis) (string, string) {
		rec := &sim.Recorder{}
		s, err := newBatchSessionShared(BatchSpec{
			G: g, F: 2, Algorithm: Algo1, Observer: rec, Instances: mkInstances(),
		}, topo)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var sb []byte
		for _, tr := range rec.Transmissions() {
			sb = fmt.Appendf(sb, "r%d %d->%v %s\n", tr.Round, tr.From, tr.Receivers, tr.Payload.Key())
		}
		return traceDigest(string(sb)), fmt.Sprintf("%+v", out)
	}
	freshDigest, freshOutcome := runOnce(graph.NewAnalysis(g))
	topo := graph.NewAnalysis(g)
	for i := 0; i < poolParityIters; i++ {
		d, out := runOnce(topo)
		if d != freshDigest || out != freshOutcome {
			t.Fatalf("iter %d: recycled-state run diverges from fresh state (digest %s vs %s)", i, d, freshDigest)
		}
	}
}
