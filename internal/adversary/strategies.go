// Package adversary provides Byzantine node implementations for fault
// injection (silent, tampering, equivocating, randomized strategies) and
// the exact cloned-execution adversaries from the paper's impossibility
// proofs (Lemmas A.1, A.2, D.1 and D.2), which demonstrate agreement
// violations on graphs below the tight thresholds.
package adversary

import (
	"math/rand"

	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// SilentNode is a crash-from-start Byzantine node: it never transmits.
// Honest neighbors substitute the default message for it in step (a).
type SilentNode struct {
	Me graph.NodeID
}

var (
	_ sim.Node         = (*SilentNode)(nil)
	_ sim.InboxIgnorer = (*SilentNode)(nil)
)

// ID returns the node id.
func (n *SilentNode) ID() graph.NodeID { return n.Me }

// Step transmits nothing.
func (n *SilentNode) Step(int, []sim.Delivery) []sim.Outgoing { return nil }

// Reset implements Resettable; a silent node carries no trial state.
func (n *SilentNode) Reset(int64) {}

// CrashedFromStart reports that this fault is silent from round zero:
// its pattern is value-blind, so executions containing it can replay a
// masked propagation plan (flood.MaskedPlanFor) instead of flooding
// dynamically.
func (n *SilentNode) CrashedFromStart() bool { return true }

// IgnoresInbox implements sim.InboxIgnorer: a crashed node reads nothing.
func (n *SilentNode) IgnoresInbox() bool { return true }

// MuteAfter wraps an honest node and suppresses all its transmissions from
// round `after` on — a mid-protocol crash fault.
type MuteAfter struct {
	Inner sim.Node
	After int
}

var _ sim.Node = (*MuteAfter)(nil)

// ID returns the inner node's id.
func (n *MuteAfter) ID() graph.NodeID { return n.Inner.ID() }

// Step delegates to the inner node, discarding output once muted.
func (n *MuteAfter) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	out := n.Inner.Step(round, inbox)
	if round >= n.After {
		return nil
	}
	return out
}

// Reset delegates to the inner node when it is itself Resettable.
func (n *MuteAfter) Reset(seed int64) {
	if r, ok := n.Inner.(Resettable); ok {
		r.Reset(seed)
	}
}

// relay is the flooding-relay core every strategy below embeds. A relaying
// adversary does what an honest forwarder does to a heard (body, Π) from
// neighbor u — name Π·u, make sure rules (i) and (iii) would let its own
// neighbors accept it, send (body', Π·u) — and it does so the way an honest
// flooder on a compiled plan does: by walking the plan's frozen arena, which
// holds every simple path of the graph. Π·u comes from the message's
// verified hint or from a lookup walk, "Π·u is a path I can extend" is one
// Extend by me, and the emitted message is the arena's canonical slice,
// pre-boxed in the plan's table for the two value bodies (flood.Plan.Box),
// so a relay step builds no path, validates no slice and, for value floods,
// allocates nothing.
//
// eval hands the adversaries of a run whose honest nodes flood on a plan's
// arena that same plan (SetPlan), which makes every hint the adversary
// reads and writes verifiable in O(1). A node nobody handed a plan uses the
// benign plan of its graph's shared analysis — compiled once per graph,
// like every other user of it.
type relay struct {
	plan *flood.Plan
	// out is the reusable transmission buffer. The engine consumes the
	// returned slice within the round and never retains it, so each Step
	// rebuilds into the same backing array at its high-water capacity.
	// Beyond its length the array is kept zeroed (emit): the node outlives
	// its runs, and stale payloads there would pin every body it relayed
	// in its busiest round.
	out []sim.Outgoing
}

// emit publishes out, built over r.out[:0], as the step's transmissions.
func (r *relay) emit(out []sim.Outgoing) []sim.Outgoing {
	if len(out) < len(r.out) {
		clear(r.out[len(out):])
	}
	r.out = out
	return out
}

// SetPlan makes the node relay over p's arena and box from p's table; nil
// returns it to its graph's shared plan. p must be a benign plan of the
// node's graph: its arena is complete, so a path it does not hold is not a
// simple path of the graph (a masked plan's arena is not, and would make
// the node drop valid relays).
func (r *relay) SetPlan(p *flood.Plan) { r.plan = p }

// drop forgets the plan and the last step's transmissions, which hold the
// plan's paths: a released node keeps neither alive.
func (r *relay) drop() {
	r.plan = nil
	clear(r.out)
	r.out = r.out[:0]
}

// over returns the plan the node relays over on graph g, replacing one left
// over from another graph (pooled nodes are re-pointed).
func (r *relay) over(g *graph.Graph) *flood.Plan {
	if r.plan == nil || r.plan.Graph() != g {
		r.plan = flood.PlanFor(g.SharedAnalysis())
	}
	return r.plan
}

// initiation is the node's flood initiation of value v: an empty Π, hinted
// with its own single-node path.
func initiation(p *flood.Plan, me graph.NodeID, v sim.Value) sim.Payload {
	return p.Box(flood.ValueBody{Value: v}, p.Arena().Root(me))
}

// relayed names the transmission by which node me relays message m heard
// from neighbor from: the interned Π·from·me — its prefix is the relay's Π,
// and it is the relay's hint — or NoPath when me cannot relay it: Π·from is
// not a simple path of the graph (rule (i)) or already contains me (rule
// (iii)), so every neighbor would discard the relay.
func relayed(a *graph.PathArena, me, from graph.NodeID, m flood.Msg) graph.PathID {
	full := m.ProvenanceIn(a, from)
	if full == graph.NoPath {
		return graph.NoPath
	}
	return a.Extend(full, me)
}

// TamperNode is a protocol-aware Byzantine node for the flooding-based
// algorithms: at the start of every phase (every PhaseLen rounds) it
// initiates flooding with a value chosen by its seeded RNG, and it relays
// every flood message it hears with the value flipped with probability
// FlipProb (and drops it with probability DropProb). Decision messages are
// flipped too. Because the local broadcast transport delivers every lie to
// all neighbors identically, this node exercises exactly the adversarial
// power the model allows.
type TamperNode struct {
	G        *graph.Graph
	Me       graph.NodeID
	PhaseLen int
	FlipProb float64
	DropProb float64

	relay
	rng *rand.Rand
}

var (
	_ sim.Node   = (*TamperNode)(nil)
	_ Resettable = (*TamperNode)(nil)
)

// NewTamper builds a tampering node with deterministic behavior derived
// from seed.
func NewTamper(g *graph.Graph, me graph.NodeID, phaseLen int, seed int64) *TamperNode {
	return &TamperNode{
		G:        g,
		Me:       me,
		PhaseLen: phaseLen,
		FlipProb: 0.75,
		DropProb: 0.2,
		rng:      rand.New(rand.NewSource(seed ^ int64(me)<<13)),
	}
}

// ID returns the node id.
func (n *TamperNode) ID() graph.NodeID { return n.Me }

// Reset re-arms the node for a new trial seeded with seed, restoring
// exactly the random stream NewTamper(g, me, phaseLen, seed) would start
// with. Scratch buffers keep their capacity.
func (n *TamperNode) Reset(seed int64) {
	if n.rng == nil {
		n.rng = rand.New(rand.NewSource(seed ^ int64(n.Me)<<13))
		return
	}
	n.rng.Seed(seed ^ int64(n.Me)<<13)
}

// Step initiates a chosen value at phase starts and relays corrupted
// messages otherwise.
func (n *TamperNode) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	out := n.out[:0]
	plan := n.over(n.G)
	if n.PhaseLen > 0 && round%n.PhaseLen == 0 {
		v := sim.Value(n.rng.Intn(2))
		out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: initiation(plan, n.Me, v)})
	}
	for _, d := range inbox {
		m, ok := d.Payload.(flood.Msg)
		if !ok {
			continue
		}
		if n.rng.Float64() < n.DropProb {
			continue
		}
		ext := relayed(plan.Arena(), n.Me, d.From, m)
		if ext == graph.NoPath {
			continue // cannot forge an invalid provenance past rule (i)
		}
		out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: plan.Box(n.corrupt(m.Body), ext)})
	}
	return n.emit(out)
}

func (n *TamperNode) corrupt(b flood.Body) flood.Body {
	if n.rng.Float64() >= n.FlipProb {
		return b
	}
	switch body := b.(type) {
	case flood.ValueBody:
		return flood.ValueBody{Value: 1 - body.Value}
	default:
		return b
	}
}

// EquivocatorNode sends conflicting initiations to different neighbors:
// value 0 to the lower half of its neighbor list and value 1 to the upper
// half, re-initiating every PhaseLen rounds, and relays honestly otherwise.
// Under the local broadcast transport the engine coerces the unicasts to
// broadcasts, neutralizing the attack — which is precisely the model
// difference the paper studies. Under point-to-point or hybrid transports
// (when listed as an equivocator) the split personalities are delivered.
type EquivocatorNode struct {
	G        *graph.Graph
	Me       graph.NodeID
	PhaseLen int

	relay
}

var (
	_ sim.Node   = (*EquivocatorNode)(nil)
	_ Resettable = (*EquivocatorNode)(nil)
)

// ID returns the node id.
func (n *EquivocatorNode) ID() graph.NodeID { return n.Me }

// Reset implements Resettable; the equivocator draws no randomness.
func (n *EquivocatorNode) Reset(int64) {}

// Step sends the split initiations at phase starts and relays faithfully in
// other rounds.
func (n *EquivocatorNode) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	out := n.out[:0]
	plan := n.over(n.G)
	if n.PhaseLen > 0 && round%n.PhaseLen == 0 {
		nbrs := n.G.AdjList(n.Me) // read-only iteration: no copy needed
		for i, nb := range nbrs {
			v := sim.Zero
			if i >= len(nbrs)/2 {
				v = sim.One
			}
			out = append(out, sim.Outgoing{To: nb, Payload: initiation(plan, n.Me, v)})
		}
		return n.emit(out)
	}
	for _, d := range inbox {
		m, ok := d.Payload.(flood.Msg)
		if !ok {
			continue
		}
		ext := relayed(plan.Arena(), n.Me, d.From, m)
		if ext == graph.NoPath {
			continue
		}
		out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: plan.Box(m.Body, ext)})
	}
	return n.emit(out)
}

// ForgerNode exploits the full forgery surface rule (i) leaves open: every
// round it fabricates flood messages with random values along random valid
// simple paths that end at itself — claims it could legitimately make,
// since only paths ending at the sender pass the provenance check. It also
// initiates conflicting values at phase starts (rule (ii) forces all its
// neighbors to resolve them identically).
type ForgerNode struct {
	G        *graph.Graph
	Me       graph.NodeID
	PhaseLen int
	// PerRound is the number of forged messages per round (default 3).
	PerRound int

	relay
	rng *rand.Rand
	// Walk scratch, reused across rounds and (via Reset) across trials:
	// walk holds the in-progress random walk, used marks its vertices, and
	// nbrs is the shuffle copy of the current vertex's adjacency row. The
	// emitted path is the arena's slice of the interned walk.
	walk []graph.NodeID
	used []bool
	nbrs []graph.NodeID
}

var (
	_ sim.Node   = (*ForgerNode)(nil)
	_ Resettable = (*ForgerNode)(nil)
)

// NewForger builds a forging node with behavior derived from seed.
func NewForger(g *graph.Graph, me graph.NodeID, phaseLen int, seed int64) *ForgerNode {
	return &ForgerNode{
		G:        g,
		Me:       me,
		PhaseLen: phaseLen,
		PerRound: 3,
		rng:      rand.New(rand.NewSource(seed ^ int64(me)*2654435761)),
	}
}

// ID returns the node id.
func (n *ForgerNode) ID() graph.NodeID { return n.Me }

// Reset re-arms the node for a new trial seeded with seed, restoring
// exactly the random stream NewForger(g, me, phaseLen, seed) would start
// with. Scratch buffers keep their capacity.
func (n *ForgerNode) Reset(seed int64) {
	if n.rng == nil {
		n.rng = rand.New(rand.NewSource(seed ^ int64(n.Me)*2654435761))
		return
	}
	n.rng.Seed(seed ^ int64(n.Me)*2654435761)
}

// Step emits the forged traffic for this round.
func (n *ForgerNode) Step(round int, _ []sim.Delivery) []sim.Outgoing {
	out := n.out[:0]
	plan := n.over(n.G)
	if n.PhaseLen > 0 && round%n.PhaseLen == 0 {
		// Two conflicting initiations: rule (ii) keeps the first.
		for i := 0; i < 2; i++ {
			v := sim.Value(n.rng.Intn(2))
			out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: initiation(plan, n.Me, v)})
		}
	}
	per := n.PerRound
	if per == 0 {
		per = 3
	}
	for i := 0; i < per; i++ {
		if ext := n.randomPathToSelf(plan.Arena()); ext != graph.NoPath {
			v := sim.Value(n.rng.Intn(2))
			out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: plan.Box(flood.ValueBody{Value: v}, ext)})
		}
	}
	return n.emit(out)
}

// randomPathToSelf picks a random simple path Π whose final transmission
// (Π·me) is valid — a random walk into me along unvisited vertices, run in
// the node's scratch buffers — and returns Π·me interned in a, NoPath when
// the walk could not leave me.
func (n *ForgerNode) randomPathToSelf(a *graph.PathArena) graph.PathID {
	// Walk backwards from me.
	length := 1 + n.rng.Intn(n.G.N()-1)
	if cap(n.used) < n.G.N() {
		n.used = make([]bool, n.G.N())
	}
	used := n.used[:n.G.N()]
	path := append(n.walk[:0], n.Me)
	used[n.Me] = true
	cur := n.Me
	for len(path) <= length {
		nbrs := append(n.nbrs[:0], n.G.AdjList(cur)...)
		n.nbrs = nbrs
		n.rng.Shuffle(len(nbrs), func(i, j int) { nbrs[i], nbrs[j] = nbrs[j], nbrs[i] })
		advanced := false
		for _, nb := range nbrs {
			if !used[nb] {
				used[nb] = true
				path = append(path, nb)
				cur = nb
				advanced = true
				break
			}
		}
		if !advanced {
			break
		}
	}
	n.walk = path
	// Un-mark exactly the walked vertices — cheaper than clearing the whole
	// mask and exact because every marked vertex is on the walk.
	for _, u := range path {
		used[u] = false
	}
	if len(path) < 2 {
		return graph.NoPath
	}
	// Reverse so the path ends at me. Every hop is an edge onto an
	// unvisited vertex, so each Extend finds or interns a simple path of
	// the graph.
	ext := graph.NoPath
	for i := len(path) - 1; i >= 0; i-- {
		if ext = a.Extend(ext, path[i]); ext == graph.NoPath {
			break
		}
	}
	return ext
}

// ReplayNode broadcasts a fixed per-round script, ignoring its inbox. It is
// the vehicle for the cloned-execution adversaries: the script is recorded
// from a faulty node's counterpart in the clone network 𝒢.
type ReplayNode struct {
	Me     graph.NodeID
	Script [][]sim.Payload
}

var _ sim.Node = (*ReplayNode)(nil)

// ID returns the node id.
func (n *ReplayNode) ID() graph.NodeID { return n.Me }

// Step broadcasts the scripted payloads for this round.
func (n *ReplayNode) Step(round int, _ []sim.Delivery) []sim.Outgoing {
	if round >= len(n.Script) {
		return nil
	}
	out := make([]sim.Outgoing, 0, len(n.Script[round]))
	for _, p := range n.Script[round] {
		out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: p})
	}
	return out
}

// SplitReplayNode replays two scripts simultaneously via unicast: neighbors
// in ClassA receive ScriptA's payloads, all other neighbors receive
// ScriptB's. It requires an equivocation-capable transport (point-to-point,
// or hybrid with this node registered as an equivocator) and implements the
// equivocating faulty nodes of Lemmas D.1/D.2.
type SplitReplayNode struct {
	G       *graph.Graph
	Me      graph.NodeID
	ClassA  graph.Set
	ScriptA [][]sim.Payload
	ScriptB [][]sim.Payload
}

var _ sim.Node = (*SplitReplayNode)(nil)

// ID returns the node id.
func (n *SplitReplayNode) ID() graph.NodeID { return n.Me }

// Step unicasts the per-class scripted payloads for this round.
func (n *SplitReplayNode) Step(round int, _ []sim.Delivery) []sim.Outgoing {
	var out []sim.Outgoing
	for _, nb := range n.G.Neighbors(n.Me) {
		script := n.ScriptB
		if n.ClassA.Contains(nb) {
			script = n.ScriptA
		}
		if round >= len(script) {
			continue
		}
		for _, p := range script[round] {
			out = append(out, sim.Outgoing{To: nb, Payload: p})
		}
	}
	return out
}
