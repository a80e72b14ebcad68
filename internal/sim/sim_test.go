package sim

import (
	"fmt"
	"testing"

	"lbcast/internal/graph"
)

// textPayload is a trivial payload for engine tests.
type textPayload string

func (p textPayload) Key() string { return string(p) }

// echoNode broadcasts a tagged message in round 0 and records everything it
// receives.
type echoNode struct {
	me       graph.NodeID
	sends    []Outgoing
	received []Delivery
}

func (n *echoNode) ID() graph.NodeID { return n.me }

func (n *echoNode) Step(round int, inbox []Delivery) []Outgoing {
	n.received = append(n.received, inbox...)
	if round == 0 {
		return n.sends
	}
	return nil
}

func line(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(graph.NodeID(i), graph.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func newNodes(n int) []*echoNode {
	out := make([]*echoNode, n)
	for i := range out {
		out[i] = &echoNode{me: graph.NodeID(i)}
	}
	return out
}

func asNodes(ns []*echoNode) []Node {
	out := make([]Node, len(ns))
	for i := range ns {
		out[i] = ns[i]
	}
	return out
}

func TestLocalBroadcastReachesAllNeighbors(t *testing.T) {
	g := line(t, 3)
	ns := newNodes(3)
	ns[1].sends = []Outgoing{{To: Broadcast, Payload: textPayload("hi")}}
	eng, err := NewEngine(Config{Topology: GraphTopology{G: g}, Model: LocalBroadcast}, asNodes(ns))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(2)
	for _, i := range []int{0, 2} {
		if len(ns[i].received) != 1 || ns[i].received[0].Payload.Key() != "hi" || ns[i].received[0].From != 1 {
			t.Fatalf("node %d received %v", i, ns[i].received)
		}
	}
	if len(ns[1].received) != 0 {
		t.Fatal("sender heard itself")
	}
	m := eng.Metrics()
	if m.Transmissions != 1 || m.Deliveries != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestLocalBroadcastCoercesUnicast(t *testing.T) {
	// Under local broadcast, an attempted unicast (equivocation) is heard
	// by everyone — the key physical property of the model.
	g := line(t, 3)
	ns := newNodes(3)
	ns[1].sends = []Outgoing{{To: 0, Payload: textPayload("secret")}}
	eng, err := NewEngine(Config{Topology: GraphTopology{G: g}, Model: LocalBroadcast}, asNodes(ns))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(2)
	if len(ns[2].received) != 1 {
		t.Fatal("unicast was not coerced to broadcast")
	}
}

func TestPointToPointUnicast(t *testing.T) {
	g := line(t, 3)
	ns := newNodes(3)
	ns[1].sends = []Outgoing{
		{To: 0, Payload: textPayload("a")},
		{To: 2, Payload: textPayload("b")},
	}
	eng, err := NewEngine(Config{Topology: GraphTopology{G: g}, Model: PointToPoint}, asNodes(ns))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(2)
	if len(ns[0].received) != 1 || ns[0].received[0].Payload.Key() != "a" {
		t.Fatalf("node 0 received %v", ns[0].received)
	}
	if len(ns[2].received) != 1 || ns[2].received[0].Payload.Key() != "b" {
		t.Fatalf("node 2 received %v", ns[2].received)
	}
}

func TestPointToPointDropsNonNeighborUnicast(t *testing.T) {
	g := line(t, 3)
	ns := newNodes(3)
	ns[0].sends = []Outgoing{{To: 2, Payload: textPayload("x")}} // 0 and 2 not adjacent
	eng, err := NewEngine(Config{Topology: GraphTopology{G: g}, Model: PointToPoint}, asNodes(ns))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(2)
	if len(ns[2].received) != 0 {
		t.Fatal("non-neighbor unicast delivered")
	}
}

func TestHybridModelEquivocators(t *testing.T) {
	g := line(t, 3)
	ns := newNodes(3)
	ns[1].sends = []Outgoing{{To: 0, Payload: textPayload("only0")}}
	// Node 1 not an equivocator: unicast is coerced to broadcast.
	eng, err := NewEngine(Config{Topology: GraphTopology{G: g}, Model: Hybrid}, asNodes(ns))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(2)
	if len(ns[2].received) != 1 {
		t.Fatal("non-equivocator's unicast was not coerced")
	}
	// Now with node 1 registered as equivocator.
	ns = newNodes(3)
	ns[1].sends = []Outgoing{{To: 0, Payload: textPayload("only0")}}
	eng, err = NewEngine(Config{
		Topology:     GraphTopology{G: g},
		Model:        Hybrid,
		Equivocators: graph.NewSet(1),
	}, asNodes(ns))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(2)
	if len(ns[2].received) != 0 {
		t.Fatal("equivocator's unicast leaked to node 2")
	}
	if len(ns[0].received) != 1 {
		t.Fatal("equivocator's unicast lost")
	}
}

func TestDeliveryOrderDeterministic(t *testing.T) {
	// Multiple senders: inbox must be ordered by ascending sender id with
	// FIFO within a sender, identically across runs.
	g, err := graph.NewFromEdges(4, []graph.Edge{{U: 3, V: 0}, {U: 3, V: 1}, {U: 3, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	run := func() []string {
		ns := newNodes(4)
		ns[0].sends = []Outgoing{{To: Broadcast, Payload: textPayload("a1")}, {To: Broadcast, Payload: textPayload("a2")}}
		ns[1].sends = []Outgoing{{To: Broadcast, Payload: textPayload("b")}}
		ns[2].sends = []Outgoing{{To: Broadcast, Payload: textPayload("c")}}
		eng, err := NewEngine(Config{Topology: GraphTopology{G: g}, Model: LocalBroadcast}, asNodes(ns))
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(2)
		var keys []string
		for _, d := range ns[3].received {
			keys = append(keys, fmt.Sprintf("%d:%s", d.From, d.Payload.Key()))
		}
		return keys
	}
	want := []string{"0:a1", "0:a2", "1:b", "2:c"}
	for trial := 0; trial < 20; trial++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v", trial, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestRunUntil(t *testing.T) {
	g := line(t, 2)
	ns := newNodes(2)
	eng, err := NewEngine(Config{Topology: GraphTopology{G: g}}, asNodes(ns))
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	eng.RunUntil(10, func() bool {
		rounds++
		return rounds == 3
	})
	if eng.Metrics().Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", eng.Metrics().Rounds)
	}
}

func TestEngineValidation(t *testing.T) {
	g := line(t, 2)
	if _, err := NewEngine(Config{Topology: GraphTopology{G: g}}, nil); err == nil {
		t.Fatal("node count mismatch accepted")
	}
	bad := []Node{&echoNode{me: 1}, &echoNode{me: 1}}
	if _, err := NewEngine(Config{Topology: GraphTopology{G: g}}, bad); err == nil {
		t.Fatal("id mismatch accepted")
	}
	if _, err := NewEngine(Config{}, nil); err == nil {
		t.Fatal("nil topology accepted")
	}
}

// eventLog records every observer event as a string, for order checks.
type eventLog struct {
	NoopObserver
	events []string
}

func (l *eventLog) RoundStart(round int) {
	l.events = append(l.events, fmt.Sprintf("round(%d)", round))
}

func (l *eventLog) Transmission(tr Transmission) {
	l.events = append(l.events, fmt.Sprintf("tx(%d,%d,%s)", tr.Round, tr.From, tr.Payload.Key()))
}

func (l *eventLog) Decision(node graph.NodeID, v Value, round int) {
	l.events = append(l.events, fmt.Sprintf("decide(%d,%s,%d)", node, v, round))
}

func (l *eventLog) Done(m Metrics) {
	l.events = append(l.events, fmt.Sprintf("done(%d)", m.Rounds))
}

func TestObserverCapturesTransmissions(t *testing.T) {
	g := line(t, 3)
	ns := newNodes(3)
	ns[0].sends = []Outgoing{{To: Broadcast, Payload: textPayload("t")}}
	rec := &Recorder{}
	eng, err := NewEngine(Config{
		Topology: GraphTopology{G: g},
		Observer: rec,
	}, asNodes(ns))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(1)
	seen := rec.Transmissions()
	if len(seen) != 1 || seen[0].From != 0 || len(seen[0].Receivers) != 1 {
		t.Fatalf("trace = %+v", seen)
	}
}

// decideAt decides a fixed value once the given round has executed.
type decideAt struct {
	me    graph.NodeID
	at    int
	val   Value
	round int
}

func (d *decideAt) ID() graph.NodeID { return d.me }

func (d *decideAt) Step(round int, _ []Delivery) []Outgoing {
	d.round = round + 1
	return nil
}

func (d *decideAt) Decision() (Value, bool) {
	if d.round > d.at {
		return d.val, true
	}
	return 0, false
}

func TestObserverEventOrderAndDecisions(t *testing.T) {
	g := line(t, 2)
	log := &eventLog{}
	nodes := []Node{
		&decideAt{me: 0, at: 0, val: One},
		&decideAt{me: 1, at: 1, val: Zero},
	}
	eng, err := NewEngine(Config{Topology: GraphTopology{G: g}, Observer: log}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(2)
	want := []string{"round(0)", "decide(0,1,0)", "round(1)", "decide(1,0,1)"}
	if fmt.Sprint(log.events) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", log.events, want)
	}
	if v, ok := eng.NodeDecision(0); !ok || v != One {
		t.Fatalf("NodeDecision(0) = %v %v", v, ok)
	}
	if !eng.AllDecided(graph.NewSet(0, 1)) {
		t.Fatal("AllDecided false after both decided")
	}
	if eng.AllDecided(graph.NewSet(0, 1, 5)) {
		t.Fatal("out-of-range node reported decided")
	}
}

func TestMultiObserverFanout(t *testing.T) {
	a, b := &eventLog{}, &eventLog{}
	obs := Observers(a, nil, b)
	obs.RoundStart(3)
	obs.Done(Metrics{Rounds: 3})
	if len(a.events) != 2 || len(b.events) != 2 {
		t.Fatalf("fanout missed events: a=%v b=%v", a.events, b.events)
	}
	if single := Observers(a); single != Observer(a) {
		t.Fatal("single observer not unwrapped")
	}
}

func TestValueString(t *testing.T) {
	if Zero.String() != "0" || One.String() != "1" {
		t.Fatal("value strings wrong")
	}
	for _, m := range []Model{LocalBroadcast, PointToPoint, Hybrid, Model(9)} {
		if m.String() == "" {
			t.Fatal("empty model name")
		}
	}
}
