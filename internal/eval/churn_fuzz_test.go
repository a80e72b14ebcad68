package eval

import (
	"math/bits"
	"math/rand"
	"testing"

	"lbcast/internal/faultinject"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// FuzzChurnReplayParity is the differential harness for the fault-injected
// tier: it decodes the input into a random connected graph plus a
// generator-built event schedule (link churn, a partition window, or a
// crash burst at a fuzzed start round), runs the benign spec once with the
// taint-frontier replay enabled and once forced fully dynamic — both over
// the same masked topology — and fails on any SHA-256 trace divergence.
// It is a separate target from FuzzReplayParity so that harness keeps its
// corpus-pinned signature.
func FuzzChurnReplayParity(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0), uint8(0), uint8(0))    // smallest graph, churn at round 0
	f.Add(int64(7), uint8(2), uint16(9), uint8(1), uint8(14))   // partition opening mid-run
	f.Add(int64(23), uint8(4), uint16(40), uint8(2), uint8(6))  // early burst with recovery
	f.Add(int64(5), uint8(3), uint16(3), uint8(0), uint8(200))  // churn past the decision horizon
	f.Add(int64(99), uint8(1), uint16(17), uint8(1), uint8(40)) // late partition, never healed
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, edgeBits uint16, kind, startRaw uint8) {
		checkPhaseStructure(t)
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
		phaseLen := lbPhaseRounds(n)
		start := int(startRaw) % (4 * phaseLen)
		var sched *faultinject.Schedule
		switch kind % 3 {
		case 0:
			sched = faultinject.Churn(g, rng, 1+int(edgeBits)%3, start, phaseLen, 1+start%phaseLen)
		case 1:
			heal := start
			if edgeBits%2 == 0 {
				heal = start + phaseLen
			}
			sched = faultinject.Partition(g, rng, start, heal)
		default:
			sched = faultinject.Burst(g, rng, 1+int(edgeBits)%n, start, (start%2)*phaseLen)
		}
		inputs := make(map[graph.NodeID]sim.Value, n)
		for u := 0; u < n; u++ {
			inputs[graph.NodeID(u)] = sim.Value((int(edgeBits) >> u) & 1)
		}
		run := func(disable bool) (string, error) {
			rec := &sim.Recorder{}
			spec := Spec{
				G: g, F: 1, Algorithm: Algo1, Inputs: inputs,
				Churn: sched, forceDynamic: disable, Observer: rec,
			}
			out, err := Run(spec)
			if err != nil {
				return "", err
			}
			return traceString(rec, out), nil
		}
		on, errOn := run(false)
		off, errOff := run(true)
		if (errOn != nil) != (errOff != nil) {
			t.Fatalf("one-sided rejection: frontier replay err=%v, forced dynamic err=%v", errOn, errOff)
		}
		if errOn != nil {
			t.Skip("spec rejected by both paths")
		}
		if traceDigest(on) != traceDigest(off) {
			t.Fatalf("frontier-replay trace diverges from forced-dynamic trace\nreplay:\n%s\ndynamic:\n%s", on, off)
		}
	})
}
