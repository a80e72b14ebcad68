package flood

import (
	"math"
	"math/rand"
	"testing"

	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// lyingHints returns copies of the honest message m — built by a sender on
// arena a, same body, same Π — whose hints lie in every way the contract
// names: no claim, ids out of range, an id of another arena, another path
// of the same arena, and the right id beside a slice that is not the
// arena's own.
func lyingHints(a *graph.PathArena, m Msg, rng *rand.Rand) []Msg {
	other := graph.NewPathArena(a.Graph())
	otherID := other.Extend(other.Intern(m.Pi), 0) // any id foreign numbering hands out
	lies := []Msg{
		{Body: m.Body, Pi: m.Pi, Hint: graph.NoPath},
		{Body: m.Body, Pi: m.Pi}, // the bare literal: claims id 0
		{Body: m.Body, Pi: m.Pi, Hint: graph.PathID(a.Len())},
		{Body: m.Body, Pi: m.Pi, Hint: math.MaxInt32},
		{Body: m.Body, Pi: m.Pi, Hint: math.MinInt32},
		{Body: m.Body, Pi: m.Pi, Hint: otherID},
		{Body: m.Body, Pi: m.Pi, Hint: graph.PathID(rng.Intn(a.Len()))},
		{Body: m.Body, Pi: m.Pi.Clone(), Hint: m.Hint},
	}
	return lies
}

// TestHintIsOnlyAHint is the soundness test of the wire hint: whatever a
// sender claims, a receiver resolves the delivery to exactly the path it
// would have interned without any claim — on the frozen plan arena the
// honest hints are about, and on a private growing arena they mean nothing
// to — and a flooder fed the lying copies ends in the same state as one
// fed hint-free messages.
func TestHintIsOnlyAHint(t *testing.T) {
	g := gen.Figure1a()
	plan := CompilePlan(g)
	arena := plan.Arena()
	rng := rand.New(rand.NewSource(5))
	for _, recv := range []*graph.PathArena{arena, graph.NewPathArena(g)} {
		for ext := graph.PathID(0); int(ext) < arena.Len(); ext++ {
			honest := hinted(arena, CanonValueBody(sim.One), ext)
			from := arena.Last(ext)
			if got := honest.ProvenanceIn(arena, from); got != ext {
				t.Fatalf("path %d: honest hint resolves to %d", ext, got)
			}
			lies := append(lyingHints(arena, honest, rng), honest)
			if len(honest.Pi) > 1 {
				// A shorter view of the arena's own slice is a different Π
				// that shares its base pointer.
				lies = append(lies, Msg{Body: honest.Body, Pi: honest.Pi[:len(honest.Pi)-1], Hint: honest.Hint})
			}
			for i, lie := range lies {
				// What the receiver would establish with no claim to look
				// at: the same Π in a slice of its own.
				bare := Msg{Body: lie.Body, Pi: lie.Pi.Clone(), Hint: graph.NoPath}
				// The authenticated sender is part of the claim: heard
				// from anyone else, the message must again resolve as the
				// hint-free one does (mostly: not at all).
				wrong := graph.NodeID((int(from) + 1) % g.N())
				for _, u := range []graph.NodeID{from, wrong} {
					if got, want := lie.ProvenanceIn(recv, u), bare.ProvenanceIn(recv, u); got != want {
						t.Fatalf("path %d, lie %d (hint %d) from %d: resolved to %d, hint-free gives %d", ext, i, lie.Hint, u, got, want)
					}
				}
			}
		}
	}

	// Whole sessions: node 0 hears every transmission of the benign flood
	// addressed to it, once with honest hints, once per kind of lie, once
	// hint-free; the receipts must agree record for record.
	session := func(corrupt func(Msg) Msg) []Receipt {
		f := NewOnPlan(plan, 0, NewIdent())
		f.Start(CanonValueBody(sim.Zero))
		bodies := make([]Body, g.N())
		for u := range bodies {
			bodies[u] = CanonValueBody(sim.Value(u % 2))
		}
		stores := make([]*ReceiptStore, g.N())
		for v := range stores {
			stores[v] = plan.PlannedStore(graph.NodeID(v), NewIdent())
		}
		for r := 0; r+1 < plan.Rounds(); r++ {
			var inbox []sim.Delivery
			for _, u := range g.AdjList(0) {
				for _, o := range plan.ReplayRound(u, r, bodies, stores[u], nil) {
					inbox = append(inbox, sim.Delivery{From: u, Payload: corrupt(o.Payload.(Msg))})
				}
			}
			f.Deliver(inbox)
		}
		return f.Receipts()
	}
	want := session(func(m Msg) Msg { return Msg{Body: m.Body, Pi: m.Pi.Clone(), Hint: graph.NoPath} })
	if len(want) != plan.NodeReceipts(0) {
		t.Fatalf("hint-free session recorded %d receipts, the plan schedules %d", len(want), plan.NodeReceipts(0))
	}
	kinds := len(lyingHints(arena, hinted(arena, CanonValueBody(sim.One), arena.Intern(graph.Path{1, 2, 3})), rng))
	for k := -1; k < kinds; k++ {
		got := session(func(m Msg) Msg {
			if k < 0 {
				return m
			}
			return lyingHints(arena, m, rng)[k]
		})
		if len(got) != len(want) {
			t.Fatalf("lie %d: %d receipts, hint-free session has %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].PathID != want[i].PathID || got[i].Origin != want[i].Origin || got[i].Body != want[i].Body {
				t.Fatalf("lie %d: receipt %d = %+v, hint-free session has %+v", k, i, got[i], want[i])
			}
		}
	}
}

// TestValueSlotTableMatchesMap checks the PathID-indexed rule-(ii) table
// against the string-keyed reference flooder: over adversarial delivery
// streams (repeats, conflicting contents, value and non-value slots) the
// production flooder accepts exactly what the reference accepts, session
// after session across Recycle — with the generation counter about to wrap
// — on a growing private arena and on a frozen plan arena, where a flooder
// that was never recycled is the first session.
func TestValueSlotTableMatchesMap(t *testing.T) {
	g := gen.Figure1b()
	plan := CompilePlan(g)
	me := graph.NodeID(0)
	var paths []graph.Path
	for id := graph.PathID(0); int(id) < plan.Arena().Len(); id++ {
		paths = append(paths, plan.Arena().Path(id))
	}
	for _, tc := range []struct {
		name string
		new  func() *Flooder
	}{
		{"growing", func() *Flooder { return New(g, me) }},
		{"frozen", func() *Flooder { return NewOnPlan(plan, me, NewIdent()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			fl := tc.new()
			for session := 0; session < 6; session++ {
				switch session {
				case 0: // never recycled
				case 3:
					fl.gen = math.MaxUint32 - 1 // sessions 3, 4 end on MaxUint32 and on the wrap
					fallthrough
				default:
					fl.Recycle()
				}
				if fl.gen == 0 {
					t.Fatal("generation 0 would read a cleared table as taken")
				}
				ref := newRefFlooder(g, me)
				own := ValueBody{Value: sim.One}
				fl.Start(own)
				ref.start(own)
				for i := 0; i < 1500; i++ {
					var body Body = ValueBody{Value: sim.Value(rng.Intn(2))}
					if rng.Intn(8) == 0 {
						body = slotBody{slot: "s" + string(rune('0'+rng.Intn(3))), key: "k" + string(rune('0'+rng.Intn(2)))}
					}
					m := Msg{Body: body, Pi: paths[rng.Intn(len(paths))], Hint: graph.PathID(rng.Intn(len(paths)))}
					if rng.Intn(16) == 0 {
						m.Pi = nil
					}
					from := g.AdjList(me)[rng.Intn(g.Degree(me))]
					fl.Deliver([]sim.Delivery{{From: from, Payload: m}})
					ref.deliver(from, m)
				}
				got := fl.Receipts()
				if len(got) != len(ref.receipts) {
					t.Fatalf("session %d: %d receipts, reference has %d", session, len(got), len(ref.receipts))
				}
				for i, r := range got {
					if want := ref.receipts[i]; fl.Store().Path(r).Key() != want.pathKey || fl.Store().BodyKey(i) != want.bodyKey {
						t.Fatalf("session %d: receipt %d = (%s, %s), reference has (%s, %s)", session, i,
							fl.Store().Path(r).Key(), fl.Store().BodyKey(i), want.pathKey, want.bodyKey)
					}
				}
			}
			if fl.gen != 2 {
				t.Fatalf("generation after the wrap and one more session = %d, want 2", fl.gen)
			}
		})
	}
}
