package core

import (
	"strings"

	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file implements the value-vector lane group of the batched
// multi-instance engine: one PhaseNode-shaped state machine executing many
// benign consensus instances ("lanes") at once, with a single flooding
// session per phase whose messages carry every lane's value in one body.
//
// The soundness of the collapse is structural: a benign instance (no
// Byzantine overrides anywhere) floods with input-independent structure —
// every node initiates, every accepted (slot, Π) is forwarded, and
// acceptance order depends only on the graph and the engine's canonical
// delivery order, never on the values carried. All benign lanes of a
// batch therefore accept exactly the same (slot, Π) sets in the same
// order, and their executions differ only in the values along those
// paths. One shared flooding session with a VectorBody per message
// reproduces each lane's independent execution exactly: rules (i)–(iv)
// are value-blind, and every per-lane read (step (b) path reads, step (c)
// disjoint-receipt queries, the early-decision certificate) projects its
// lane out of the shared receipts.
//
// Faulty instances do not collapse — a Byzantine node's transmissions
// differ per instance, so their acceptance structure diverges — and stay
// on scalar PhaseNodes; the eval batch runner groups lanes accordingly.

// VectorBody is the multi-lane step-(a) flood body: Values[l] is lane l's
// value. It is immutable after construction (the Payload contract).
type VectorBody struct {
	Values []sim.Value
}

var _ flood.Body = VectorBody{}

// Key returns the canonical identity: "vv:" plus one bit per lane.
func (b VectorBody) Key() string {
	var sb strings.Builder
	sb.Grow(3 + len(b.Values))
	sb.WriteString("vv:")
	for _, v := range b.Values {
		if v == sim.Zero {
			sb.WriteByte('0')
		} else {
			sb.WriteByte('1')
		}
	}
	return sb.String()
}

// Slot returns the per-origin instance id, matching ValueBody: one vector
// value per origin per phase.
func (VectorBody) Slot() string { return "" }

// InternKey supplies the integer identity without rendering the bit
// string on every receipt: the Values slice is immutable and forwarded by
// reference, so slice identity implies content identity and the rendering
// runs once per distinct vector per node.
func (b VectorBody) InternKey(t *flood.Ident) flood.BodyID {
	if len(b.Values) == 0 {
		return t.KeyID(b.Key())
	}
	if id, ok := t.MemoKey(&b.Values[0], len(b.Values), 0); ok {
		return id
	}
	return t.SetMemoKey(&b.Values[0], len(b.Values), 0, t.KeyID(b.Key()))
}

// InternSlot returns the pre-reserved empty-slot identity.
func (VectorBody) InternSlot(*flood.Ident) flood.SlotID { return flood.EmptySlot }

var (
	_ flood.KeyInterner  = VectorBody{}
	_ flood.SlotInterner = VectorBody{}
)

// VectorPhaseNode runs Algorithm 1 (t = 0) or Algorithm 3 phases for many
// benign lanes at once. It mirrors PhaseNode exactly, lane by lane: the
// flooding work is shared, the per-lane state (γ, early decision) and the
// phase-end computations are per lane. It is not a sim.Decider — lanes
// decide individually; see LaneDecision.
type VectorPhaseNode struct {
	g      *graph.Graph
	me     graph.NodeID
	f      int
	phases []PhaseSpec
	topo   *graph.Analysis

	gammas       []sim.Value
	phaseIdx     int
	roundInPhase int
	flooder      *flood.Flooder
	// store holds the current phase's receipts (the flooder's store on the
	// dynamic path, a plan-sized bulk-installed store on the replay path);
	// the phase-end lane computations read only the store.
	store *flood.ReceiptStore
	done  bool

	// replay, when non-nil, selects plan replay for the group's shared
	// flooding session — the lane group is benign by construction, so its
	// flood is fault-free whatever the rest of the batch does. replayStore
	// is the run's planned store view, recycled phase over phase;
	// replayBuf is the reused replay outbox buffer.
	replay      *ReplayShared
	replayStore *flood.ReceiptStore
	replayBuf   []sim.Outgoing
	// sharedStepB replaces the private stepB map for replaying groups; see
	// PhaseNode.sharedStepB.
	sharedStepB *stepBCache
	// zvBuf/nvBuf/origBuf are the reusable phase-end scratch sets; scratch
	// backs the disjoint-receipt queries; readsBuf/readsValid are the
	// per-origin step-(b) read table; lanes shares the per-lane searches
	// of one query, and admitBuf (a lane's Av as a node-indexed table) and
	// undecidedBuf serve the per-lane projections.
	zvBuf, nvBuf, origBuf graph.Set
	scratch               flood.QueryScratch
	readsBuf              []VectorBody
	readsValid            []bool
	lanes                 laneShare
	admitBuf              []bool
	undecidedBuf          []bool
	// valsBuf, in phantom replay mode only, backs the published phase
	// vector in place of a per-phase allocation; see replayStep.
	valsBuf []sim.Value

	arena *graph.PathArena
	ident *flood.Ident
	// stepB caches the step-(b) path choice per (origin, exclusion set),
	// exactly as PhaseNode does — the choice is topology-only, so one
	// entry serves every lane. Created lazily by the dynamic path.
	stepB map[stepBKey]graph.PathID

	earlyOK         bool
	earlyDecided    []bool
	earlyValues     []sim.Value
	phaseStartGamma []sim.Value
}

var (
	_ sim.Node         = (*VectorPhaseNode)(nil)
	_ sim.LaneDecider  = (*VectorPhaseNode)(nil)
	_ sim.InboxIgnorer = (*VectorPhaseNode)(nil)
)

// NewVectorAlgo1Node builds a multi-lane Algorithm 1 node over the given
// per-lane inputs. topo and arena follow the newPhaseNode sharing
// contract; arena may be nil for a private arena.
func NewVectorAlgo1Node(topo *graph.Analysis, f int, me graph.NodeID, inputs []sim.Value, arena *graph.PathArena) *VectorPhaseNode {
	return newVectorPhaseNode(topo, f, me, inputs, algo1PhasesShared(topo, f), arena)
}

// NewVectorHybridNode builds a multi-lane Algorithm 3 node.
func NewVectorHybridNode(topo *graph.Analysis, f, t int, me graph.NodeID, inputs []sim.Value, arena *graph.PathArena) *VectorPhaseNode {
	return newVectorPhaseNode(topo, f, me, inputs, hybridPhasesShared(topo, f, t), arena)
}

func newVectorPhaseNode(topo *graph.Analysis, f int, me graph.NodeID, inputs []sim.Value, phases []PhaseSpec, arena *graph.PathArena) *VectorPhaseNode {
	g := topo.Graph()
	// A nil arena stays nil until the first dynamic flooding round; see
	// newPhaseNode.
	gammas := make([]sim.Value, len(inputs))
	copy(gammas, inputs)
	return &VectorPhaseNode{
		g:               g,
		me:              me,
		f:               f,
		phases:          phases,
		topo:            topo,
		gammas:          gammas,
		arena:           arena,
		earlyDecided:    make([]bool, len(inputs)),
		earlyValues:     make([]sim.Value, len(inputs)),
		phaseStartGamma: make([]sim.Value, len(inputs)),
	}
}

// ID returns the node id.
func (nd *VectorPhaseNode) ID() graph.NodeID { return nd.me }

// Lanes returns the number of lanes.
func (nd *VectorPhaseNode) Lanes() int { return len(nd.gammas) }

// Reset returns the node to its initial protocol state over a fresh lane
// input vector, recycling every buffer grown during previous runs (the
// planned store view, replay and query scratch, read tables). The run
// wiring (UseReplay, EnableEarlyDecision) is preserved; the lane count may
// change between runs.
func (nd *VectorPhaseNode) Reset(inputs []sim.Value) {
	b := len(inputs)
	if cap(nd.gammas) < b {
		nd.gammas = make([]sim.Value, b)
		nd.earlyDecided = make([]bool, b)
		nd.earlyValues = make([]sim.Value, b)
		nd.phaseStartGamma = make([]sim.Value, b)
	} else {
		nd.gammas = nd.gammas[:b]
		nd.earlyDecided = nd.earlyDecided[:b]
		nd.earlyValues = nd.earlyValues[:b]
		nd.phaseStartGamma = nd.phaseStartGamma[:b]
	}
	copy(nd.gammas, inputs)
	clear(nd.earlyDecided)
	clear(nd.earlyValues)
	clear(nd.phaseStartGamma)
	nd.phaseIdx = 0
	nd.roundInPhase = 0
	nd.done = false
}

// UseReplay switches the group's shared flooding sessions to plan replay;
// see PhaseNode.UseReplay for the contract. The vector group's lanes are
// all benign (that is what admits them to the group), so its flood is
// fault-free and replayable even when the batch also carries faulty scalar
// instances — those stay dynamic, and the multiplexed transmissions remain
// byte-identical. One ReplayShared serves all vertices of the group.
func (nd *VectorPhaseNode) UseReplay(rs *ReplayShared) {
	nd.replay = rs
	nd.arena = rs.plan.Arena()
	nd.sharedStepB = replayStepBCache(nd.topo, rs.plan)
	nd.replayBuf = make([]sim.Outgoing, 0, rs.plan.MaxRoundReceipts(nd.me))
}

// IgnoresInbox implements sim.InboxIgnorer: a replaying group draws every
// arrival from the compiled plan and never reads its inbox.
func (nd *VectorPhaseNode) IgnoresInbox() bool { return nd.replay != nil }

// EnableEarlyDecision enables the per-lane observed-unanimity rule; see
// PhaseNode.EnableEarlyDecision for the soundness argument, which applies
// lane-wise unchanged.
func (nd *VectorPhaseNode) EnableEarlyDecision() { nd.earlyOK = true }

// LaneDecision reports lane l's decided output: after all phases
// complete, or as soon as the lane's early-decision rule fires.
func (nd *VectorPhaseNode) LaneDecision(l int) (sim.Value, bool) {
	if nd.done {
		return nd.gammas[l], true
	}
	if nd.earlyDecided[l] {
		return nd.earlyValues[l], true
	}
	return 0, false
}

// Step advances the node by one synchronous round, mirroring
// PhaseNode.Step with one flooding session shared by every lane.
func (nd *VectorPhaseNode) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	if nd.done || nd.phaseIdx >= len(nd.phases) {
		nd.done = true
		return nil
	}
	var out []sim.Outgoing
	if nd.replay != nil {
		out = nd.replayStep()
	} else {
		out = nd.dynamicStep(inbox)
	}
	nd.roundInPhase++
	if nd.roundInPhase == PhaseRounds(nd.g.N()) {
		nd.endPhase()
		nd.roundInPhase = 0
		nd.phaseIdx++
		if nd.phaseIdx == len(nd.phases) {
			nd.done = true
		}
	}
	return out
}

// dynamicStep runs one round of the message-by-message flooding path,
// mirroring PhaseNode.dynamicStep with the lane-vector body.
func (nd *VectorPhaseNode) dynamicStep(inbox []sim.Delivery) []sim.Outgoing {
	var out []sim.Outgoing
	switch nd.roundInPhase {
	case 0:
		flood.NoteDynamicSession()
		if nd.arena == nil {
			nd.arena = graph.NewPathArena(nd.g)
		}
		if nd.ident == nil {
			nd.ident = flood.NewIdent()
		}
		expect := 0
		if nd.flooder != nil {
			expect = nd.flooder.Store().Len()
		}
		nd.flooder = flood.NewWithState(nd.g, nd.me, nd.arena, nd.ident)
		nd.flooder.Expect(expect)
		nd.store = nd.flooder.Store()
		copy(nd.phaseStartGamma, nd.gammas)
		vals := make([]sim.Value, len(nd.gammas))
		copy(vals, nd.gammas)
		out = nd.flooder.Start(VectorBody{Values: vals})
	case 1:
		out = nd.flooder.Deliver(inbox)
		out = nd.flooder.AppendMissing(out, func(graph.NodeID) flood.Body {
			vals := make([]sim.Value, len(nd.gammas))
			for i := range vals {
				vals[i] = sim.DefaultValue
			}
			return VectorBody{Values: vals}
		})
	default:
		out = nd.flooder.Deliver(inbox)
	}
	return out
}

// replayStep runs one round of the plan-replay path, mirroring
// PhaseNode.replayStep: the published phase body is the group's lane
// vector, shared by every receipt installed from this origin.
func (nd *VectorPhaseNode) replayStep() []sim.Outgoing {
	plan := nd.replay.plan
	if nd.roundInPhase == 0 {
		flood.NoteReplaySession()
		// The planned view carries a nil Ident: no vector phase-end query
		// filters by body identity (step (b) reads by path, step (c) and
		// the unanimity certificate project lanes Go-side), so the interned
		// IDs are never compared and AnyBody suffices. This also keeps
		// recycled runs from accreting per-vector table state — a pooled
		// ident would intern every distinct lane vector it ever saw.
		if nd.replayStore == nil {
			nd.replayStore = plan.PlannedStore(nd.me, nil)
		} else {
			nd.replayStore.ResetPlanned()
		}
		nd.store = nd.replayStore
		copy(nd.phaseStartGamma, nd.gammas)
		var vals []sim.Value
		if nd.replay.phantom {
			// Phantom mode materializes no payloads, so the only holders
			// of the published body are the group's own planned stores,
			// all of which reset before the next phase publishes: the
			// backing array can be overwritten phase over phase. With an
			// observer (non-phantom), retained payloads forbid this.
			if cap(nd.valsBuf) < len(nd.gammas) {
				nd.valsBuf = make([]sim.Value, len(nd.gammas))
			}
			vals = nd.valsBuf[:len(nd.gammas)]
		} else {
			vals = make([]sim.Value, len(nd.gammas))
		}
		copy(vals, nd.gammas)
		nd.replay.bodies[nd.me] = VectorBody{Values: vals}
	}
	var out []sim.Outgoing
	if nd.replay.phantom {
		out = plan.ReplayRoundPhantom(nd.me, nd.roundInPhase, nd.replay.bodies, nd.store, nd.replayBuf[:0])
	} else {
		out = plan.ReplayRound(nd.me, nd.roundInPhase, nd.replay.bodies, nd.store, nd.replayBuf[:0])
	}
	nd.replayBuf = out
	return out
}

// chosenPath returns the interned step-(b) path choice for origin u under
// excl, mirroring PhaseNode.chosenPath (shared analysis-wide cache when
// replaying, private memo otherwise).
func (nd *VectorPhaseNode) chosenPath(u graph.NodeID, excl graph.Set) graph.PathID {
	if nd.sharedStepB != nil {
		return nd.sharedStepB.chosen(nd.topo, nd.arena, u, nd.me, excl)
	}
	if nd.stepB == nil {
		nd.stepB = make(map[stepBKey]graph.PathID)
	}
	return chosenStepBPath(nd.topo, nd.arena, nd.stepB, u, nd.me, excl)
}

// endPhase runs steps (b) and (c) of the current phase for every lane.
// The candidate receipts (exclusion-filtered, value-blind) are gathered
// once per phase; each lane's queries then run over projections of that
// one set, which reproduces the scalar behavior exactly — rule (ii) admits
// one content per (slot, path), so filtering by body before or after the
// path dedup selects the same receipts. Lanes whose projections coincide
// share one search (see laneShare).
func (nd *VectorPhaseNode) endPhase() {
	spec := nd.phases[nd.phaseIdx]
	excl := spec.F.Union(spec.T)
	st := nd.store
	if nd.earlyOK {
		nd.checkUnanimity(st)
	}

	// Step (b), shared across lanes: one chosen path per origin; one
	// receipt read yields every lane's value. The read table is a reused
	// node-indexed pair of slices (the former per-phase map).
	n := nd.g.N()
	if cap(nd.readsBuf) < n {
		nd.readsBuf = make([]VectorBody, n)
		nd.readsValid = make([]bool, n)
	}
	reads := nd.readsBuf[:n]
	readsValid := nd.readsValid[:n]
	clear(readsValid)
	for _, u := range nd.g.Nodes() {
		if spec.T.Contains(u) || u == nd.me {
			continue
		}
		pid := nd.chosenPath(u, excl)
		if pid == graph.NoPath {
			continue
		}
		for r := range st.AtPath(pid) {
			if vb, ok := r.Body.(VectorBody); ok {
				reads[u] = vb
				readsValid[u] = true
				break
			}
		}
	}

	// Step (c) candidates, shared across lanes and values: every receipt
	// whose path excludes F∪T. Lane- and value-specific filtering happens
	// inside the per-lane selection.
	nd.lanes.group(nd.scratch.Candidates(st, flood.Filter{Exclude: excl}), n)
	if cap(nd.admitBuf) < n {
		nd.admitBuf = make([]bool, n)
	}
	admit := nd.admitBuf[:n]

	for l := range nd.gammas {
		// The per-lane sets live only within the lane's step (b)/(c); the
		// buffers are reused across lanes and phases.
		zv := resetSet(&nd.zvBuf)
		nv := resetSet(&nd.nvBuf)
		for _, u := range nd.g.Nodes() {
			if spec.T.Contains(u) {
				continue
			}
			if u == nd.me {
				if nd.gammas[l] == sim.Zero {
					zv.Add(u)
				} else {
					nv.Add(u)
				}
				continue
			}
			zero := false
			if readsValid[u] {
				if vs := reads[u].Values; l < len(vs) && vs[l] == sim.Zero {
					zero = true
				}
			}
			if zero {
				zv.Add(u)
			} else {
				nv.Add(u)
			}
		}
		av, bv := selectAvBv(zv, nv, spec.F, nd.f, nd.f-spec.T.Len())
		if !bv.Contains(nd.me) {
			continue
		}
		// Did lane l receive delta along f+1 node-disjoint (except at
		// this node) Avv-paths among the candidates? The lane projection
		// of the step-(c) flood.ReceivedOnDisjointPaths query.
		clear(admit)
		for u := range av {
			admit[u] = true
		}
		for _, delta := range []sim.Value{sim.Zero, sim.One} {
			nd.lanes.signature(l, delta, admit)
			if nd.lanes.search(&nd.scratch, nd.arena, nd.f+1, flood.DisjointExceptLast) {
				nd.gammas[l] = delta
				break
			}
		}
	}
}

// checkUnanimity applies the per-lane early-decision certificate: lane l
// decides its phase-start value x if x was received from every other node
// along f+1 internally node-disjoint paths. The per-origin candidate sets
// are value-blind and gathered once; each lane projects its value, and
// lanes with equal projections share one search.
func (nd *VectorPhaseNode) checkUnanimity(st *flood.ReceiptStore) {
	pending := 0
	for l := range nd.gammas {
		if !nd.earlyDecided[l] {
			pending++
		}
	}
	if pending == 0 {
		return
	}
	if cap(nd.undecidedBuf) < len(nd.gammas) {
		nd.undecidedBuf = make([]bool, len(nd.gammas))
	}
	undecided := nd.undecidedBuf[:len(nd.gammas)]
	for l := range undecided {
		undecided[l] = !nd.earlyDecided[l]
	}
	orig := resetSet(&nd.origBuf)
	for _, u := range nd.g.Nodes() {
		if u == nd.me {
			continue
		}
		clear(orig)
		orig.Add(u)
		nd.lanes.group(nd.scratch.Candidates(st, flood.Filter{Origins: orig}), nd.g.N())
		for l := range nd.gammas {
			if !undecided[l] {
				continue
			}
			nd.lanes.signature(l, nd.phaseStartGamma[l], nil)
			if !nd.lanes.search(&nd.scratch, nd.arena, nd.f+1, flood.InternallyDisjoint) {
				undecided[l] = false
				pending--
			}
		}
		if pending == 0 {
			return
		}
	}
	for l, ok := range undecided {
		if ok {
			nd.earlyDecided[l] = true
			nd.earlyValues[l] = nd.phaseStartGamma[l]
		}
	}
}
