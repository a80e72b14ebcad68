package core

import (
	"maps"
	"slices"
	"testing"

	"lbcast/internal/adversary"
	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// pathTamper is a Byzantine relay that flips every value it forwards
// during phase 1 and behaves honestly afterwards (it reports truthfully in
// phase 2). It exercises the commission branch of fault identification.
type pathTamper struct {
	g       *graph.Graph
	me      graph.NodeID
	flooder *flood.Flooder
	phase1  int
}

func (n *pathTamper) ID() graph.NodeID { return n.me }

func (n *pathTamper) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	if round >= n.phase1 {
		return nil // silent in later phases
	}
	var out []sim.Outgoing
	if round == 0 {
		n.flooder = flood.New(n.g, n.me)
		return n.flooder.Start(flood.ValueBody{Value: sim.Zero})
	}
	for _, d := range inbox {
		m, ok := d.Payload.(flood.Msg)
		if !ok {
			continue
		}
		full := m.Pi.Append(d.From)
		if !full.ValidIn(n.g) || !full.IsSimple() || full.Contains(n.me) {
			continue
		}
		vb, ok := m.Body.(flood.ValueBody)
		if !ok {
			continue
		}
		out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: flood.Msg{
			Body: flood.ValueBody{Value: 1 - vb.Value},
			Pi:   full,
		}})
	}
	return out
}

func runAlgo2(t *testing.T, g *graph.Graph, f int, inputs []sim.Value, byz map[graph.NodeID]sim.Node) ([]*EfficientNode, map[graph.NodeID]sim.Value) {
	t.Helper()
	return runAlgo2Model(t, g, f, inputs, byz, sim.LocalBroadcast, 0)
}

// runAlgo2Model is runAlgo2 under a given transport model and equivocator
// set. Nodes step in parallel, so under -race the runs check that every
// node may read the shared frozen plan arena at once.
func runAlgo2Model(t *testing.T, g *graph.Graph, f int, inputs []sim.Value, byz map[graph.NodeID]sim.Node, model sim.Model, equivocators graph.Set) ([]*EfficientNode, map[graph.NodeID]sim.Value) {
	t.Helper()
	nodes := make([]sim.Node, g.N())
	var honest []*EfficientNode
	for i := range nodes {
		u := graph.NodeID(i)
		if b, ok := byz[u]; ok {
			nodes[i] = b
			continue
		}
		en := NewEfficientNode(g, f, u, inputs[i])
		nodes[i] = en
		honest = append(honest, en)
	}
	eng, err := sim.NewEngine(sim.Config{Topology: sim.GraphTopology{G: g}, Model: model, Equivocators: equivocators}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(EfficientRounds(g.N()))
	dec := make(map[graph.NodeID]sim.Value)
	for u, v := range eng.Decisions() {
		if _, isByz := byz[u]; !isByz {
			dec[u] = v
		}
	}
	return honest, dec
}

func assertAgreementValidity(t *testing.T, dec map[graph.NodeID]sim.Value, honestInputs map[sim.Value]bool, wantCount int) {
	t.Helper()
	if len(dec) != wantCount {
		t.Fatalf("only %d of %d honest nodes decided", len(dec), wantCount)
	}
	var ref sim.Value
	first := true
	for u, v := range dec {
		if first {
			ref, first = v, false
		}
		if v != ref {
			t.Fatalf("agreement violated at node %d: %v", u, dec)
		}
		if !honestInputs[v] {
			t.Fatalf("validity violated: decided %s", v)
		}
	}
}

func TestAlgo2AllHonest(t *testing.T) {
	g := gen.Figure1a()
	inputs := []sim.Value{1, 1, 0, 0, 1}
	_, dec := runAlgo2(t, g, 1, inputs, nil)
	assertAgreementValidity(t, dec, map[sim.Value]bool{0: true, 1: true}, 5)
}

func TestAlgo2UnanimousStaysUnanimous(t *testing.T) {
	g := gen.Figure1b() // 4-connected: supports f=2
	inputs := make([]sim.Value, g.N())
	for i := range inputs {
		inputs[i] = sim.Zero
	}
	_, dec := runAlgo2(t, g, 2, inputs, nil)
	for u, v := range dec {
		if v != sim.Zero {
			t.Fatalf("node %d decided %s on unanimous 0", u, v)
		}
	}
}

func TestAlgo2TamperIsIdentified(t *testing.T) {
	g := gen.Figure1a()
	faulty := graph.NodeID(2)
	byz := map[graph.NodeID]sim.Node{
		faulty: &pathTamper{g: g, me: faulty, phase1: flood.Rounds(g.N())},
	}
	inputs := []sim.Value{1, 1, 0, 1, 1}
	honest, dec := runAlgo2(t, g, 1, inputs, byz)
	assertAgreementValidity(t, dec, map[sim.Value]bool{0: true, 1: true}, 4)
	// The flipper tampers every path through it; with f=1 every honest
	// node that detects it becomes type A with exactly {2}.
	for _, h := range honest {
		ident := h.Identified()
		if ident.Len() > 0 && !ident.Contains(faulty) {
			t.Fatalf("node %d identified wrong fault set %v", h.ID(), ident)
		}
		if ident.Contains(faulty) && !h.TypeA() {
			t.Fatalf("node %d identified the fault but is not type A", h.ID())
		}
	}
}

func TestAlgo2SilentFault(t *testing.T) {
	g := gen.Figure1a()
	for z := 0; z < g.N(); z++ {
		faulty := graph.NodeID(z)
		byz := map[graph.NodeID]sim.Node{faulty: &silent{me: faulty}}
		inputs := []sim.Value{1, 0, 1, 0, 1}
		_, dec := runAlgo2(t, g, 1, inputs, byz)
		honestInputs := map[sim.Value]bool{}
		for i, v := range inputs {
			if graph.NodeID(i) != faulty {
				honestInputs[v] = true
			}
		}
		assertAgreementValidity(t, dec, honestInputs, 4)
	}
}

func TestAlgo2NoFalseIdentification(t *testing.T) {
	// With zero faults, no honest node may identify anyone as faulty.
	g := gen.Figure1b()
	inputs := []sim.Value{0, 1, 0, 1, 1, 0, 1, 0}
	honest, _ := runAlgo2(t, g, 2, inputs, nil)
	for _, h := range honest {
		if h.Identified().Len() != 0 {
			t.Fatalf("node %d identified %v in a fault-free run", h.ID(), h.Identified())
		}
		if h.TypeA() {
			t.Fatalf("node %d claims type A in a fault-free run", h.ID())
		}
	}
}

type silent struct{ me graph.NodeID }

func (s *silent) ID() graph.NodeID                        { return s.me }
func (s *silent) Step(int, []sim.Delivery) []sim.Outgoing { return nil }

func TestAlgo2TwoFaultsOnFigure1b(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	g := gen.Figure1b()
	byz := map[graph.NodeID]sim.Node{
		1: &silent{me: 1},
		5: &pathTamper{g: g, me: 5, phase1: flood.Rounds(g.N())},
	}
	inputs := []sim.Value{0, 0, 1, 0, 1, 1, 1, 0}
	honestInputs := map[sim.Value]bool{}
	for i, v := range inputs {
		if _, isByz := byz[graph.NodeID(i)]; !isByz {
			honestInputs[v] = true
		}
	}
	_, dec := runAlgo2(t, g, 2, inputs, byz)
	assertAgreementValidity(t, dec, honestInputs, 6)
}

// TestAlgo2ForgerNeverConvictsHonest is the regression test for the
// late-injection forgery attack: junk flooded in the final rounds of
// phase 1 leaves honest relays no time to complete their forwarding
// chains, which a naive (un-timed) omission rule misreads as honest
// misbehavior. With round-stamped transcripts the identification walk
// stays sound: only the forger is ever convicted and consensus holds.
func TestAlgo2ForgerNeverConvictsHonest(t *testing.T) {
	g := gen.Figure1b()
	for _, seed := range []int64{1, 3, 7, 101, 4242} {
		for z := 0; z < g.N(); z += 3 {
			faulty := graph.NodeID(z)
			forger := adversary.NewForger(g, faulty, flood.Rounds(g.N()), seed)
			inputs := []sim.Value{1, 1, 0, 1, 1, 0, 0, 0}
			byz := map[graph.NodeID]sim.Node{faulty: forger}
			honest, dec := runAlgo2(t, g, 2, inputs, byz)
			honestInputs := map[sim.Value]bool{}
			for i, v := range inputs {
				if graph.NodeID(i) != faulty {
					honestInputs[v] = true
				}
			}
			assertAgreementValidity(t, dec, honestInputs, g.N()-1)
			for _, h := range honest {
				for u := range h.Identified().All() {
					if u != faulty {
						t.Fatalf("seed=%d faulty=%d: node %d convicted honest node %d",
							seed, faulty, h.ID(), u)
					}
				}
			}
		}
	}
}

// TestAlgo2FaultIdentificationProperties checks Section 5.3's two claims
// about fault identification as properties of every run, over every
// placement of at most f faults on figure1a (f=1) and figure1b (f=2).
// Soundness: no honest node ever identifies an honest node. Completeness:
// a type A node has identified exactly the faulty set. The walks' probes
// resolve through the integer message identities, so these properties
// also guard that resolution. Figure1a runs every placement under every
// strategy and input vector; figure1b stripes them, each placement under
// one strategy and one input vector, every strategy and vector recurring.
// The claims are the local broadcast model's, so the equivocator runs
// there (its unicasts coerced to broadcasts); under Hybrid they fail, see
// TestAlgo2HybridEquivocationBreaksSoundness.
func TestAlgo2FaultIdentificationProperties(t *testing.T) {
	type strategy struct {
		name string
		make func(g *graph.Graph, u graph.NodeID, seed int64) sim.Node
	}
	strategies := []strategy{
		{"tamper", func(g *graph.Graph, u graph.NodeID, seed int64) sim.Node {
			return adversary.NewTamper(g, u, PhaseRounds(g.N()), seed)
		}},
		{"forge", func(g *graph.Graph, u graph.NodeID, seed int64) sim.Node {
			return adversary.NewForger(g, u, PhaseRounds(g.N()), seed)
		}},
		{"silent", func(_ *graph.Graph, u graph.NodeID, _ int64) sim.Node {
			return &adversary.SilentNode{Me: u}
		}},
		{"equivocate", func(g *graph.Graph, u graph.NodeID, _ int64) sim.Node {
			return &adversary.EquivocatorNode{G: g, Me: u, PhaseLen: PhaseRounds(g.N())}
		}},
	}
	inputVectors := func(n int) [][]sim.Value {
		alt, ones, mixed := make([]sim.Value, n), make([]sim.Value, n), make([]sim.Value, n)
		for i := range alt {
			alt[i] = sim.Value(i % 2)
			ones[i] = sim.One
			mixed[i] = sim.Value(i * 5 % 3 % 2)
		}
		return [][]sim.Value{alt, ones, mixed}
	}
	check := func(t *testing.T, g *graph.Graph, f int, faulty []graph.NodeID, st strategy, inputs []sim.Value) {
		t.Helper()
		byz := make(map[graph.NodeID]sim.Node, len(faulty))
		faultSet := graph.NewSet()
		for _, u := range faulty {
			byz[u] = st.make(g, u, int64(u)+7)
			faultSet.Add(u)
		}
		honest, _ := runAlgo2(t, g, f, inputs, byz)
		for _, h := range honest {
			id := h.Identified()
			for u := range id.All() {
				if !faultSet.Contains(u) {
					t.Fatalf("%s at %v, inputs %v: node %d identified honest node %d (identified %v)",
						st.name, faulty, inputs, h.ID(), u, id)
				}
			}
			if h.TypeA() && !id.Equal(faultSet) {
				t.Fatalf("%s at %v, inputs %v: type A node %d identified %v, want the faulty set",
					st.name, faulty, inputs, h.ID(), id)
			}
		}
	}
	placements := func(n, f int) [][]graph.NodeID {
		out := [][]graph.NodeID{nil}
		for a := 0; a < n; a++ {
			out = append(out, []graph.NodeID{graph.NodeID(a)})
			if f >= 2 {
				for b := a + 1; b < n; b++ {
					out = append(out, []graph.NodeID{graph.NodeID(a), graph.NodeID(b)})
				}
			}
		}
		return out
	}

	t.Run("figure1a", func(t *testing.T) {
		g := gen.Figure1a()
		for _, faulty := range placements(g.N(), 1) {
			for _, st := range strategies {
				for _, inputs := range inputVectors(g.N()) {
					check(t, g, 1, faulty, st, inputs)
				}
			}
		}
	})
	t.Run("figure1b", func(t *testing.T) {
		g := gen.Figure1b()
		vectors := inputVectors(g.N())
		for k, faulty := range placements(g.N(), 2) {
			check(t, g, 2, faulty, strategies[k%len(strategies)], vectors[k%len(vectors)])
		}
	})
}

// TestAlgo2HybridEquivocationBreaksSoundness pins why the fault
// identification properties are checked under local broadcast only.
// Algorithm 2 is a local broadcast algorithm: Lemma C.2 needs every
// neighbor of a node to hear the same transmissions. A Hybrid equivocator
// splits its initiation between its neighbors, so an honest neighbor
// faithfully forwards a value that contradicts the one reliably received
// from the equivocator, and the walks convict it.
func TestAlgo2HybridEquivocationBreaksSoundness(t *testing.T) {
	g := gen.Figure1a()
	faulty := graph.NodeID(0)
	byz := map[graph.NodeID]sim.Node{faulty: &adversary.EquivocatorNode{G: g, Me: faulty, PhaseLen: PhaseRounds(g.N())}}
	honest, _ := runAlgo2Model(t, g, 1, []sim.Value{0, 1, 0, 1, 0}, byz, sim.Hybrid, graph.NewSet(faulty))
	for _, h := range honest {
		for u := range h.Identified().All() {
			if u != faulty {
				return
			}
		}
	}
	t.Fatal("no honest node was convicted: Algorithm 2's fault identification now holds under Hybrid equivocation; extend TestAlgo2FaultIdentificationProperties to it")
}

// TestTranscriptIdentityFollowsRendering checks TranscriptBody.InternKey
// against the canonical rendering: two transcripts get one identity
// exactly when their Key renderings agree, whatever slices carry them
// and whatever their entries' hints claim.
func TestTranscriptIdentityFollowsRendering(t *testing.T) {
	g := gen.Figure1a()
	plan := flood.PlanFor(g.SharedAnalysis())
	a := plan.Arena()
	const z = graph.NodeID(1)
	var honest []TranscriptEntry
	for id := graph.PathID(0); int(id) < a.Len() && len(honest) < 6; id++ {
		if a.Last(id) == z {
			m := plan.Box(flood.ValueBody{Value: sim.Value(id % 2)}, id).(flood.Msg)
			honest = append(honest, TranscriptEntry{Round: int32(a.PathLen(id) - 1), Msg: m})
		}
	}
	// A Π that is no path of the graph resolves through its rendering.
	honest = append(honest, TranscriptEntry{Round: 2, Msg: flood.Msg{Body: flood.ValueBody{Value: 1}, Pi: graph.Path{z, z}}})

	rewrite := func(edit func(i int, e *TranscriptEntry)) []TranscriptEntry {
		out := slices.Clone(honest)
		for i := range out {
			out[i].Msg.Pi = slices.Clone(out[i].Msg.Pi) // never the arena's slice
			edit(i, &out[i])
		}
		return out
	}
	bodies := []TranscriptBody{
		{Observed: z, Entries: honest},
		{Observed: z, Entries: rewrite(func(int, *TranscriptEntry) {})},
		{Observed: z, Entries: rewrite(func(i int, e *TranscriptEntry) { e.Msg.Hint = graph.PathID(i) })},
		{Observed: z, Entries: rewrite(func(_ int, e *TranscriptEntry) { e.Msg.Hint = graph.NoPath })},
		{Observed: z, Entries: rewrite(func(i int, e *TranscriptEntry) {
			if i == 3 {
				e.Msg.Body = flood.ValueBody{Value: 1 - e.Msg.Body.(flood.ValueBody).Value}
			}
		})},
		{Observed: z, Entries: rewrite(func(i int, e *TranscriptEntry) {
			if i == 2 {
				e.Round++
			}
		})},
		{Observed: z, Entries: honest[:4]},
		{Observed: 2, Entries: honest},
		{Observed: z},
	}
	ident := flood.NewIdentOn(a)
	for i, b := range bodies {
		for j, c := range bodies {
			same := b.Key() == c.Key()
			if got := b.InternKey(ident) == c.InternKey(ident); got != same {
				t.Errorf("bodies %d and %d: equal identities %t, equal renderings %t", i, j, got, same)
			}
		}
	}
}

// transcriptLiar is a faulty Algorithm 2 node that runs honestly except
// that every phase-2 report it initiates drops the last entry of the
// transcript, so each report about one of its neighbours is contested.
type transcriptLiar struct{ *EfficientNode }

func (n transcriptLiar) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	out := n.EfficientNode.Step(round, inbox)
	if n.round != PhaseRounds(n.g.N())+1 {
		return out
	}
	lied := make([]sim.Outgoing, len(out))
	for i, o := range out {
		m := o.Payload.(flood.Msg)
		tb := m.Body.(TranscriptBody)
		if len(tb.Entries) > 0 {
			tb.Entries = tb.Entries[:len(tb.Entries)-1]
		}
		m.Body = tb
		lied[i] = sim.Outgoing{To: o.To, Payload: m}
	}
	return lied
}

// refReliableTranscript is the string-keyed reference of
// computeReliableTranscript: claims about z grouped by their rendered
// TranscriptBody.Key, groups tried in key order.
func refReliableTranscript(nd *EfficientNode, z graph.NodeID) ([]TranscriptEntry, bool, int) {
	if nd.g.HasEdge(z, nd.me) {
		return nd.heard[z], true, 1
	}
	type group struct {
		body  TranscriptBody
		paths []flood.Receipt
	}
	reports := nd.flooder.Store()
	groups := map[string]*group{}
	for _, r := range reports.All() {
		tb, ok := r.Body.(TranscriptBody)
		if !ok || tb.Observed != z || !nd.g.HasEdge(r.Origin, z) || reports.Path(r).Contains(z) {
			continue
		}
		key := tb.Key()
		grp := groups[key]
		if grp == nil {
			grp = &group{body: tb}
			groups[key] = grp
		}
		zp := append(graph.Path{z}, reports.Path(r)...)
		grp.paths = append(grp.paths, flood.Receipt{Origin: z, PathID: nd.arena.Intern(zp), Body: tb})
	}
	keys := slices.Sorted(maps.Keys(groups))
	for _, k := range keys {
		if flood.SelectDisjoint(nd.arena, groups[k].paths, nd.f+1, flood.InternallyDisjoint) != nil {
			return groups[k].body.Entries, true, len(keys)
		}
	}
	return nil, false, len(keys)
}

// TestAlgo2ReliableTranscriptMatchesKeyGrouping stops runs at the end of
// phase 2, when the flooder's store holds the reports, and requires every
// honest node's computeReliableTranscript — which groups claims by lazily
// interned body identity — to return the very entries the string-keyed
// reference grouping returns, for every other node. Figure1a runs every
// single-fault placement under every strategy; figure1b stripes its
// placements of two faults over the strategies. The liar contests
// transcripts, so the key-ordered tie-break between groups is exercised.
func TestAlgo2ReliableTranscriptMatchesKeyGrouping(t *testing.T) {
	strategies := []struct {
		name string
		make func(g *graph.Graph, f int, u graph.NodeID) sim.Node
	}{
		{"tamper", func(g *graph.Graph, _ int, u graph.NodeID) sim.Node {
			return adversary.NewTamper(g, u, PhaseRounds(g.N()), int64(u)+7)
		}},
		{"forge", func(g *graph.Graph, _ int, u graph.NodeID) sim.Node {
			return adversary.NewForger(g, u, PhaseRounds(g.N()), int64(u)+7)
		}},
		{"silent", func(_ *graph.Graph, _ int, u graph.NodeID) sim.Node { return &adversary.SilentNode{Me: u} }},
		{"equivocate", func(g *graph.Graph, _ int, u graph.NodeID) sim.Node {
			return &adversary.EquivocatorNode{G: g, Me: u, PhaseLen: PhaseRounds(g.N())}
		}},
		{"liar", func(g *graph.Graph, f int, u graph.NodeID) sim.Node {
			return transcriptLiar{NewEfficientNode(g, f, u, sim.One)}
		}},
	}
	contested := 0
	check := func(t *testing.T, g *graph.Graph, f int, faulty []graph.NodeID, s int) {
		t.Helper()
		nodes := make([]sim.Node, g.N())
		var honest []*EfficientNode
		for i := range nodes {
			u := graph.NodeID(i)
			if slices.Contains(faulty, u) {
				nodes[i] = strategies[s].make(g, f, u)
				continue
			}
			nd := NewEfficientNode(g, f, u, sim.Value(i*5%3%2))
			nodes[i] = nd
			honest = append(honest, nd)
		}
		eng, err := sim.NewEngine(sim.Config{Topology: sim.GraphTopology{G: g}}, nodes)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		eng.Run(2 * PhaseRounds(g.N()))
		for _, h := range honest {
			for _, z := range g.Nodes() {
				if z == h.me {
					continue
				}
				got, gotOK := h.computeReliableTranscript(z)
				want, wantOK, groups := refReliableTranscript(h, z)
				if groups > 1 {
					contested++
				}
				same := len(got) == len(want) && (len(got) == 0 || &got[0] == &want[0])
				if gotOK != wantOK || !same {
					t.Fatalf("%s at %v: node %d about %d: got %t %s, want %t %s", strategies[s].name, faulty, h.me, z,
						gotOK, TranscriptBody{Observed: z, Entries: got}.Key(), wantOK, TranscriptBody{Observed: z, Entries: want}.Key())
				}
			}
		}
	}
	t.Run("figure1a", func(t *testing.T) {
		g := gen.Figure1a()
		for u := range g.N() {
			for s := range strategies {
				check(t, g, 1, []graph.NodeID{graph.NodeID(u)}, s)
			}
		}
	})
	t.Run("figure1b", func(t *testing.T) {
		g := gen.Figure1b()
		k := 0
		for a := range g.N() {
			for b := a + 1; b < g.N(); b++ {
				check(t, g, 2, []graph.NodeID{graph.NodeID(a), graph.NodeID(b)}, k%len(strategies))
				k++
			}
		}
	})
	if contested == 0 {
		t.Fatal("no run contested a transcript: the tie-break between claim groups went unchecked")
	}
}
