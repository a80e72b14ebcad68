package adversary

import (
	"math/rand"

	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// AdaptiveNode is a transcript-driven Byzantine node: instead of corrupting
// traffic blindly, it observes the flood messages it hears, keeps per-origin
// and per-value tallies, and adapts each phase — it initiates the value it
// has heard least (maximizing disagreement pressure) and singles out the
// origin whose messages dominated the previous phase as its victim,
// relaying that origin's floods with the value flipped while relaying
// everyone else faithfully to stay credible. All choices are deterministic
// in (seed, observed transcript), so trials reproduce exactly.
type AdaptiveNode struct {
	G        *graph.Graph
	Me       graph.NodeID
	PhaseLen int

	relay
	rng *rand.Rand
	// valueSeen tallies observed initiation-value occurrences this phase;
	// originSeen tallies observed flood messages per origin vertex.
	valueSeen  [2]int
	originSeen []int
	// victim is the origin targeted this phase; none when negative.
	victim graph.NodeID
}

var (
	_ sim.Node   = (*AdaptiveNode)(nil)
	_ Resettable = (*AdaptiveNode)(nil)
)

// NewAdaptive builds an adaptive node with tie-breaking behavior derived
// from seed (on the fast-seed source — the Monte Carlo layer is its only
// randomized constructor path, matching NewFastTamper).
func NewAdaptive(g *graph.Graph, me graph.NodeID, phaseLen int, seed int64) *AdaptiveNode {
	return &AdaptiveNode{
		G:        g,
		Me:       me,
		PhaseLen: phaseLen,
		rng:      rand.New(NewFastSource(seed ^ int64(me)*0x9e3779b9)),
		victim:   -1,
	}
}

// ID returns the node id.
func (n *AdaptiveNode) ID() graph.NodeID { return n.Me }

// Reset re-arms the node for a new trial seeded with seed, restoring
// exactly the state NewAdaptive(g, me, phaseLen, seed) constructs. Scratch
// buffers keep their capacity; the observation tallies clear.
func (n *AdaptiveNode) Reset(seed int64) {
	if n.rng == nil {
		n.rng = rand.New(NewFastSource(seed ^ int64(n.Me)*0x9e3779b9))
	} else {
		n.rng.Seed(seed ^ int64(n.Me)*0x9e3779b9)
	}
	n.valueSeen = [2]int{}
	for i := range n.originSeen {
		n.originSeen[i] = 0
	}
	n.victim = -1
}

// Step adapts at phase starts (pick victim, counter-initiate) and relays
// the round's inbox with the victim's floods corrupted.
func (n *AdaptiveNode) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	out := n.out[:0]
	plan := n.over(n.G)
	if n.PhaseLen > 0 && round%n.PhaseLen == 0 {
		n.adapt()
		out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: initiation(plan, n.Me, n.counterValue())})
	}
	for _, d := range inbox {
		m, ok := d.Payload.(flood.Msg)
		if !ok {
			continue
		}
		ext := relayed(plan.Arena(), n.Me, d.From, m)
		if ext == graph.NoPath {
			continue // rule (i) would reject the relayed provenance anyway
		}
		origin := plan.Arena().Origin(ext)
		n.observe(origin, m.Body)
		body := m.Body
		if origin == n.victim {
			if vb, ok := body.(flood.ValueBody); ok {
				body = flood.ValueBody{Value: 1 - vb.Value}
			}
		}
		out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: plan.Box(body, ext)})
	}
	return n.emit(out)
}

// observe tallies one heard flood message into the phase's transcript
// statistics.
func (n *AdaptiveNode) observe(origin graph.NodeID, body flood.Body) {
	if len(n.originSeen) < n.G.N() {
		grown := make([]int, n.G.N())
		copy(grown, n.originSeen)
		n.originSeen = grown
	}
	if int(origin) >= 0 && int(origin) < len(n.originSeen) {
		n.originSeen[origin]++
	}
	if vb, ok := body.(flood.ValueBody); ok && (vb.Value == 0 || vb.Value == 1) {
		n.valueSeen[vb.Value]++
	}
}

// adapt closes the previous phase's observation window: the most-heard
// origin becomes the new victim (lowest id on ties, none when the window
// was silent) and the tallies reset for the next window. The value tallies
// are consumed by counterValue before clearing.
func (n *AdaptiveNode) adapt() {
	n.victim = -1
	best := 0
	for u, c := range n.originSeen {
		if c > best {
			best = c
			n.victim = graph.NodeID(u)
		}
	}
	for i := range n.originSeen {
		n.originSeen[i] = 0
	}
}

// counterValue picks the initiation value: the minority value of the closed
// window (pressure against the observed majority), random on a blank or
// tied transcript. It clears the value tallies for the next window.
func (n *AdaptiveNode) counterValue() sim.Value {
	v0, v1 := n.valueSeen[0], n.valueSeen[1]
	n.valueSeen = [2]int{}
	switch {
	case v0 > v1:
		return sim.One
	case v1 > v0:
		return sim.Zero
	default:
		return sim.Value(n.rng.Intn(2))
	}
}
