// Package sim implements the synchronous message-passing system model of
// Section 3 of the paper: n nodes on an undirected graph G, lock-step
// rounds, FIFO links, and a choice of communication model — local broadcast
// (every transmission is heard identically by all neighbors), classical
// point-to-point (per-neighbor messages, so equivocation is possible), or
// the hybrid model of Section 6 (a designated subset of nodes may
// equivocate, all others are restricted to local broadcast).
//
// Nodes are deterministic state machines driven by the engine; each round
// the engine steps every node in index order on the calling goroutine, then
// routes the collected transmissions through the configured transport.
// Within a round no node sees another's output, so the stepping order
// cannot change the execution; delivery order is canonicalized (ascending
// sender id, FIFO within a sender's round output) so executions are
// reproducible. Parallelism lives one level up: independent runs
// (sweep cells, Monte Carlo trials, concurrent sessions) step on their own
// goroutines.
package sim

import (
	"encoding/json"
	"fmt"
	"sync"

	"lbcast/internal/graph"
)

// Value is a binary consensus value.
type Value uint8

// The two binary consensus values. DefaultValue is substituted by neighbors
// when a (faulty) node fails to initiate flooding (Section 5.1, step (a)).
const (
	Zero Value = 0
	One  Value = 1

	// DefaultValue is the value assumed for silent nodes.
	DefaultValue = One
)

// String renders the value as "0" or "1".
func (v Value) String() string {
	if v == Zero {
		return "0"
	}
	return "1"
}

// Broadcast is the Outgoing.To sentinel meaning "transmit to all
// neighbors".
const Broadcast graph.NodeID = -1

// Payload is the content of a message. Implementations must be immutable
// after construction; Key returns a canonical string identity used for
// equality ("received identically") and deduplication.
type Payload interface {
	Key() string
}

// Delivery is a received message: payload plus the (authenticated) sender.
// Per Section 3, "when a message m sent by node u is received by node v,
// node v knows that m was sent by node u".
type Delivery struct {
	From    graph.NodeID
	Payload Payload
}

// Outgoing is a transmission request emitted by a node in a round. To is
// Broadcast or a specific neighbor (the latter is honoured only where the
// transport permits unicast).
type Outgoing struct {
	To      graph.NodeID
	Payload Payload
}

// phantomPayload is the type of the Phantom sentinel.
type phantomPayload struct{}

// Key identifies the sentinel; it is never rendered in a run that is
// allowed to emit phantoms (no observer), so it exists only for the
// Payload contract and for debugging stray phantoms.
func (phantomPayload) Key() string { return "phantom" }

// Phantom is a shared opaque payload emitted in place of a real message
// when the sender can prove no one will ever read the content: the run
// has no Observer and every receiver of the transmission draws its
// arrivals from a compiled propagation plan (InboxIgnorer). Transmission
// and delivery COUNTS are unaffected — one phantom outgoing is routed,
// counted, and (never) observed exactly like the real message it stands
// for — but the payload materialization cost (boxing bodies, building
// multiplexed part slices) is elided entirely. Emitters are responsible
// for the proof; see core.ReplayShared.SetPhantom and
// BatchNode.SetRecycling.
var Phantom Payload = phantomPayload{}

// Node is a per-node state machine. Step is called once per round with the
// messages delivered at the start of that round (those sent in the previous
// round) and returns this round's transmissions. Implementations must not
// retain inbox slices.
type Node interface {
	// ID returns the node's vertex id.
	ID() graph.NodeID
	// Step executes one synchronous round.
	Step(round int, inbox []Delivery) []Outgoing
}

// Decider is a Node that eventually decides an output value.
type Decider interface {
	Node
	// Decision returns the decided value; ok is false while undecided.
	Decision() (Value, bool)
}

// InboxIgnorer is an optional Node capability: a node whose IgnoresInbox
// reports true promises to never read any inbox passed to its Step calls
// for the remainder of the run (nodes replaying a compiled propagation
// plan draw arrivals from the plan instead). When every node of a round
// reports true, the engine skips materializing the round's deliveries —
// transmissions are still routed, counted, and observed identically, but
// no Delivery records are built — which removes the per-delivery fan-out
// cost from fully-planned rounds. The promise may begin as false and
// become true (e.g. after a batch retires its dynamic instances), never
// the reverse.
type InboxIgnorer interface {
	// IgnoresInbox reports whether the node ignores all future inboxes.
	IgnoresInbox() bool
}

// Topology abstracts who hears whom. The undirected graph case is
// GraphTopology; the necessity proofs use directed clone networks
// (adversary package).
type Topology interface {
	// N returns the number of nodes.
	N() int
	// Receivers returns, in ascending order, the nodes that hear a
	// broadcast by sender.
	Receivers(sender graph.NodeID) []graph.NodeID
}

// GraphTopology adapts an undirected graph: a broadcast by u is heard by
// u's neighbors.
type GraphTopology struct {
	G *graph.Graph
}

var _ Topology = GraphTopology{}

// N returns the node count.
func (t GraphTopology) N() int { return t.G.N() }

// Receivers returns the sender's neighbors. The slice is shared with the
// graph's adjacency (read-only) — Receivers runs once per transmission.
func (t GraphTopology) Receivers(sender graph.NodeID) []graph.NodeID {
	return t.G.AdjList(sender)
}

// Model selects the communication model.
type Model int

// The three communication models of the paper.
const (
	// LocalBroadcast: every transmission reaches all neighbors
	// identically (Sections 4–5). Unicast requests are coerced to
	// broadcast — the model makes equivocation physically impossible.
	LocalBroadcast Model = iota + 1
	// PointToPoint: classical model; per-neighbor messages allowed.
	PointToPoint
	// Hybrid: nodes in the engine's Equivocators set behave as
	// point-to-point senders; everyone else is restricted to local
	// broadcast (Section 6).
	Hybrid
)

// String names the model.
func (m Model) String() string {
	switch m {
	case LocalBroadcast:
		return "local-broadcast"
	case PointToPoint:
		return "point-to-point"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// MarshalJSON encodes the model by name.
func (m Model) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.String())
}

// Transmission records one physical transmission for tracing: the sender,
// the payload, and the set of receivers.
type Transmission struct {
	Round     int
	From      graph.NodeID
	Payload   Payload
	Receivers []graph.NodeID
}

// Metrics aggregates execution counters.
type Metrics struct {
	Rounds        int `json:"rounds"`        // rounds executed
	Transmissions int `json:"transmissions"` // physical sends (a local broadcast counts once)
	Deliveries    int `json:"deliveries"`    // message receptions
}

// Config configures an Engine.
type Config struct {
	Topology Topology
	Model    Model
	// Equivocators is consulted only under the Hybrid model: members may
	// address individual neighbors.
	Equivocators graph.Set
	// Observer, when set, receives round, transmission and decision
	// events (see Observer). Use sim.Observers to combine several.
	Observer Observer
	// Parallel is ignored: every engine steps its nodes in index order on
	// the calling goroutine. The benchmark's probe kit still sets it; the
	// field goes once that caller stops.
	Parallel bool
}

// Engine drives a set of nodes through synchronous rounds on the calling
// goroutine; it starts no goroutines of its own. Close returns its inbox
// arrays to a process-wide pool for the next engine to reuse.
type Engine struct {
	cfg     Config
	nodes   []Node
	metrics Metrics
	decided []bool // decision-event edge detection, per node

	// inboxes are the per-node delivery slices, reused across rounds: once
	// every node has stepped on its inbox (nodes must not retain it), the
	// round's transmissions are routed into the same slices, truncated,
	// not reallocated.
	inboxes [][]Delivery
	// outboxes is the reused per-round collection of node outputs.
	outboxes [][]Outgoing
	// ignoreBuf is the reused per-round InboxIgnorer flags (see step).
	ignoreBuf []bool
}

// deliveryPool recycles per-node inbox backing arrays across engines.
// Short-lived engines (one per Session.Run, one per sweep cell) used to
// regrow every inbox from zero; the pool hands the next engine the
// previous one's fully-grown arrays. Entries are cleared before being
// pooled so no payload outlives its run.
var deliveryPool = sync.Pool{New: func() any { s := make([]Delivery, 0, 16); return &s }}

// getInbox takes an empty delivery slice from the pool.
func getInbox() []Delivery { return (*deliveryPool.Get().(*[]Delivery))[:0] }

// putInbox clears a delivery slice and returns it to the pool.
func putInbox(s []Delivery) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	s = s[:0]
	deliveryPool.Put(&s)
}

// NewEngine builds an engine over nodes; nodes[i] must have ID i and len
// must equal the topology size.
func NewEngine(cfg Config, nodes []Node) (*Engine, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("sim: nil topology")
	}
	if cfg.Model == 0 {
		cfg.Model = LocalBroadcast
	}
	if len(nodes) != cfg.Topology.N() {
		return nil, fmt.Errorf("sim: %d nodes for topology of size %d", len(nodes), cfg.Topology.N())
	}
	for i, nd := range nodes {
		if nd == nil {
			return nil, fmt.Errorf("sim: nil node at %d", i)
		}
		if nd.ID() != graph.NodeID(i) {
			return nil, fmt.Errorf("sim: node at index %d reports id %d", i, nd.ID())
		}
	}
	ns := make([]Node, len(nodes))
	copy(ns, nodes)
	e := &Engine{
		cfg:      cfg,
		nodes:    ns,
		inboxes:  make([][]Delivery, len(nodes)),
		outboxes: make([][]Outgoing, len(nodes)),
		decided:  make([]bool, len(nodes)),
	}
	for i := range e.inboxes {
		e.inboxes[i] = getInbox()
	}
	return e, nil
}

// ReserveInbox grows node v's inbox to hold at least n deliveries, so a
// fresh engine whose callers know the traffic ahead (a compiled plan's
// per-round fan-in) routes into a pre-sized slice instead of regrowing it
// round after round. Deliveries beyond n still append.
func (e *Engine) ReserveInbox(v graph.NodeID, n int) {
	if cap(e.inboxes[v]) < n {
		putInbox(e.inboxes[v])
		e.inboxes[v] = make([]Delivery, 0, n)
	}
}

// Close returns the engine's inbox arrays to the delivery pool. It is
// idempotent and safe on engines that never ran. The engine must not be
// stepped after Close.
func (e *Engine) Close() {
	for i := range e.inboxes {
		putInbox(e.inboxes[i])
		e.inboxes[i] = nil
	}
}

// Metrics returns a copy of the current counters.
func (e *Engine) Metrics() Metrics { return e.metrics }

// Reset rewinds the engine for a fresh run over the same nodes and
// topology: metrics and decision-edge state are zeroed, the observer is
// replaced, and the inbox arrays are cleared (payloads
// from the previous run's final round must not outlive it) but their
// backing capacity is kept. The nodes themselves are NOT reset; callers
// recycling protocol state across runs (eval's run pool) reset them
// separately. Must not be called on a closed engine.
func (e *Engine) Reset(obs Observer) {
	e.metrics = Metrics{}
	clear(e.decided)
	e.cfg.Observer = obs
	for i := range e.inboxes {
		e.inboxes[i] = clearDeliveries(e.inboxes[i])
	}
}

// SetNode replaces the node at vertex u for subsequent rounds. It is the
// re-plug hook of pooled runs whose Byzantine placements vary by instance:
// the pooled engine keeps its recycled honest nodes and swaps only the
// adversary slots between runs. The replacement must report ID u.
func (e *Engine) SetNode(u graph.NodeID, nd Node) error {
	if int(u) < 0 || int(u) >= len(e.nodes) {
		return fmt.Errorf("sim: SetNode vertex %d out of range", u)
	}
	if nd == nil {
		return fmt.Errorf("sim: nil node at %d", u)
	}
	if nd.ID() != u {
		return fmt.Errorf("sim: node for vertex %d reports id %d", u, nd.ID())
	}
	e.nodes[u] = nd
	return nil
}

// clearDeliveries empties a delivery slice in place, dropping payload
// references up to its full capacity.
func clearDeliveries(s []Delivery) []Delivery {
	if cap(s) == 0 {
		return s[:0]
	}
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// Run executes rounds synchronous rounds. The round number passed to the
// nodes is global: successive Run calls continue where the previous one
// stopped.
func (e *Engine) Run(rounds int) {
	for r := 0; r < rounds; r++ {
		e.Step()
	}
}

// RunUntil executes up to maxRounds further rounds, stopping early once
// done() reports true (checked after each round).
func (e *Engine) RunUntil(maxRounds int, done func() bool) {
	for r := 0; r < maxRounds; r++ {
		e.Step()
		if done() {
			return
		}
	}
}

// Step executes exactly one synchronous round. Callers that need
// per-round control — early-termination predicates, context
// cancellation — drive the engine with Step instead of Run.
func (e *Engine) Step() {
	round := e.metrics.Rounds
	if e.cfg.Observer != nil {
		e.cfg.Observer.RoundStart(round)
	}
	e.step(round)
	if e.cfg.Observer != nil {
		e.emitDecisions(round)
	}
}

// emitDecisions fires a Decision event for every node that newly decided.
func (e *Engine) emitDecisions(round int) {
	for i, nd := range e.nodes {
		if e.decided[i] {
			continue
		}
		d, ok := nd.(Decider)
		if !ok {
			continue
		}
		if v, decidedNow := d.Decision(); decidedNow {
			e.decided[i] = true
			e.cfg.Observer.Decision(nd.ID(), v, round)
		}
	}
}

// step runs a single round: every node, in index order, consumes its inbox
// and produces an outbox; the transport then routes the outboxes into the
// same inbox slices, which the next round reads. The outbox collection and
// the inbox slices are reused round over round (nodes must not retain inbox
// slices — see Node).
func (e *Engine) step(round int) {
	n := len(e.nodes)
	outboxes := e.outboxes
	for i, nd := range e.nodes {
		outboxes[i] = nd.Step(round, e.inboxes[i])
	}

	// Every node has stepped: this round's inboxes are consumed, so the
	// next round's deliveries overwrite them in place.
	next := e.inboxes
	for i := range next {
		next[i] = next[i][:0]
	}
	// Nodes that promise to ignore their inboxes (InboxIgnorer — all
	// arrivals come from a compiled plan) get no Delivery records built:
	// transmissions are still routed, counted, and observed identically,
	// only the per-delivery fan-out below is elided — for every node when
	// the whole run replays, per receiver when replaying and dynamic nodes
	// share a round (a masked-plan run whose silent faults ignore their
	// inboxes beside a delta run's dynamic flooders).
	skipAll, ignore := e.inboxIgnorers()
	// Ascending sender order + outbox order gives deterministic FIFO
	// delivery.
	for i := 0; i < n; i++ {
		sender := graph.NodeID(i)
		for _, out := range outboxes[i] {
			receivers := e.route(sender, out)
			if len(receivers) == 0 {
				continue
			}
			e.metrics.Transmissions++
			if e.cfg.Observer != nil {
				e.cfg.Observer.Transmission(Transmission{
					Round:     round,
					From:      sender,
					Payload:   out.Payload,
					Receivers: receivers,
				})
			}
			if skipAll {
				e.metrics.Deliveries += len(receivers)
				continue
			}
			for _, rcv := range receivers {
				e.metrics.Deliveries++
				if ignore != nil && ignore[rcv] {
					continue
				}
				next[rcv] = append(next[rcv], Delivery{From: sender, Payload: out.Payload})
			}
		}
		outboxes[i] = nil
	}
	e.metrics.Rounds++
}

// inboxIgnorers collects which nodes have promised to ignore their future
// inboxes (see InboxIgnorer). It returns (true, nil) when every node has —
// the fan-out loop then skips delivery building wholesale — and otherwise
// (false, flags) where flags[u] marks the individual ignorers (nil when
// there are none). Checked per round: the promise can turn on mid-run (a
// batch retiring its last dynamic instance) but never off. The flag slice
// is reused round over round.
func (e *Engine) inboxIgnorers() (all bool, flags []bool) {
	if e.ignoreBuf == nil {
		e.ignoreBuf = make([]bool, len(e.nodes))
	}
	all = true
	any := false
	for i, nd := range e.nodes {
		ig, ok := nd.(InboxIgnorer)
		ignores := ok && ig.IgnoresInbox()
		e.ignoreBuf[i] = ignores
		all = all && ignores
		any = any || ignores
	}
	if all {
		return true, nil
	}
	if !any {
		return false, nil
	}
	return false, e.ignoreBuf
}

// route resolves a transmission to its receiver set under the configured
// model. Unicast to a non-neighbor is dropped.
func (e *Engine) route(sender graph.NodeID, out Outgoing) []graph.NodeID {
	all := e.cfg.Topology.Receivers(sender)
	mayUnicast := false
	switch e.cfg.Model {
	case PointToPoint:
		mayUnicast = true
	case Hybrid:
		mayUnicast = e.cfg.Equivocators.Contains(sender)
	}
	if out.To == Broadcast || !mayUnicast {
		// Local broadcast semantics: the transmission is heard by every
		// neighbor, whatever the sender intended.
		return all
	}
	for _, r := range all {
		if r == out.To {
			return []graph.NodeID{r}
		}
	}
	return nil
}

// NodeDecision returns node u's decision, if u implements Decider and has
// decided.
func (e *Engine) NodeDecision(u graph.NodeID) (Value, bool) {
	if int(u) < 0 || int(u) >= len(e.nodes) {
		return 0, false
	}
	d, ok := e.nodes[u].(Decider)
	if !ok {
		return 0, false
	}
	return d.Decision()
}

// AllDecided reports whether every node in the set has decided.
func (e *Engine) AllDecided(nodes graph.Set) bool {
	for u := range nodes.All() {
		if _, ok := e.NodeDecision(u); !ok {
			return false
		}
	}
	return true
}

// Decisions gathers decisions from all nodes implementing Decider. The
// returned map has an entry per decided node.
func (e *Engine) Decisions() map[graph.NodeID]Value {
	out := make(map[graph.NodeID]Value)
	for _, nd := range e.nodes {
		if d, ok := nd.(Decider); ok {
			if v, decided := d.Decision(); decided {
				out[nd.ID()] = v
			}
		}
	}
	return out
}
