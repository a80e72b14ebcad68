package flood

import (
	"fmt"
	"sync"
	"testing"

	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// FuzzIdentRoundTrip feeds arbitrary key and slot strings through the
// interner and checks the table invariants: string↔ID round-trips are
// exact, equal strings always map to equal IDs, distinct strings never
// collide, and re-interning is stable.
func FuzzIdentRoundTrip(f *testing.F) {
	f.Add("", "v:0", "tr:3:0|v:1@0->2;1|v:0@0->1->2")
	f.Add("v:1", "v:1", "v:1")
	f.Add("d", "tr:7", "eig:1,2=0")
	f.Add("a\x00b", "\xff\xfe", "αβγ")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		ident := NewIdent()
		strs := []string{a, b, c, a} // repeat a: re-interning must be stable
		ids := make([]BodyID, len(strs))
		slots := make([]SlotID, len(strs))
		for i, s := range strs {
			ids[i] = ident.KeyID(s)
			slots[i] = ident.SlotIDOf(s)
		}
		for i, s := range strs {
			if got := ident.KeyString(ids[i]); got != s {
				t.Fatalf("KeyString(KeyID(%q)) = %q", s, got)
			}
			if got := ident.SlotString(slots[i]); got != s {
				t.Fatalf("SlotString(SlotIDOf(%q)) = %q", s, got)
			}
			for j, u := range strs {
				if (s == u) != (ids[i] == ids[j]) {
					t.Fatalf("key collision/split: %q=%d, %q=%d", s, ids[i], u, ids[j])
				}
				if (s == u) != (slots[i] == slots[j]) {
					t.Fatalf("slot collision/split: %q=%d, %q=%d", s, slots[i], u, slots[j])
				}
			}
		}
		// The pre-reserved IDs never move.
		if ident.KeyID("v:0") != valueZeroID || ident.KeyID("v:1") != valueOneID {
			t.Fatal("reserved ValueBody ids moved")
		}
		if ident.KeyID("") != AnyBody || ident.SlotIDOf("") != EmptySlot {
			t.Fatal("reserved empty ids moved")
		}
	})
}

// TestIdentFastRoutesAgree checks that every fast path — message keys
// through a verified hint, the slice-identity memo, and the node-slot
// cache — yields the same ID the plain route would.
func TestIdentFastRoutesAgree(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	arena := graph.NewPathArena(g)
	ident := NewIdentOn(arena)
	pi := arena.Intern(graph.Path{0, 1, 2})
	ext := arena.Extend(pi, 3)

	// The verified hint, a lying hint, no hint, and a private copy of Π
	// all name the same message; the probe form packs it directly.
	want := PackMsgKey(valueOneID, pi)
	for _, m := range []Msg{
		hinted(arena, ValueBody{Value: 1}, ext),
		{Body: ValueBody{Value: 1}, Pi: arena.Path(pi), Hint: pi},
		{Body: ValueBody{Value: 1}, Pi: arena.Path(pi), Hint: graph.NoPath},
		{Body: ValueBody{Value: 1}, Pi: graph.Path{0, 1, 2}, Hint: ext},
	} {
		if got := ident.MsgKey(m, 3); got != want {
			t.Fatalf("MsgKey(%s, hint %d) = %#x, want %#x", m.Key(), m.Hint, got, want)
		}
	}
	if got := ident.MsgKey(Msg{Body: ValueBody{Value: 1}}, 0); got != PackMsgKey(valueOneID, graph.NoPath) {
		t.Fatalf("initiation key = %#x", got)
	}
	// A Π that is not a simple path falls back to the rendered message,
	// and never meets a resolved key.
	bad := Msg{Body: ValueBody{Value: 1}, Pi: graph.Path{0, 2}}
	if got, want := ident.MsgKey(bad, 3), PackMsgKey(ident.KeyID(bad.Key()), unresolvedPath); got != want {
		t.Fatalf("fallback key = %#x, want %#x", got, want)
	}
	if NewIdent().MsgKey(hinted(arena, ValueBody{Value: 1}, ext), 3) == want {
		t.Fatal("a table bound to no arena resolved Π")
	}
	// Sequence content keys live apart from rendered keys: a body that
	// renders a content key's very bytes does not share its identity.
	seq := ident.SeqKeyID(3, 1, func(int) (int32, Msg) { return 2, hinted(arena, ValueBody{Value: 1}, ext) })
	if ident.KeyID(ident.KeyString(seq)) == seq {
		t.Fatal("a rendered key met a sequence content key")
	}
	if again := ident.SeqKeyID(3, 1, func(int) (int32, Msg) { return 2, Msg{Body: ValueBody{Value: 1}, Pi: graph.Path{0, 1, 2}} }); again != seq {
		t.Fatalf("equal sequences interned as %d and %d", seq, again)
	}

	vals := []sim.Value{1, 0, 1}
	body := "vv:101"
	if _, ok := ident.MemoKey(&vals[0], len(vals), 0); ok {
		t.Fatal("memo unexpectedly warm")
	}
	mid := ident.SetMemoKey(&vals[0], len(vals), 0, ident.KeyID(body))
	if got := ident.KeyID(body); got != mid {
		t.Fatalf("memo route %d != string route %d", mid, got)
	}
	if got, ok := ident.MemoKey(&vals[0], len(vals), 0); !ok || got != mid {
		t.Fatalf("memo lookup = %d, %t", got, ok)
	}
	// A different tag is a different identity namespace entry.
	if _, ok := ident.MemoKey(&vals[0], len(vals), 9); ok {
		t.Fatal("tag ignored in memo key")
	}

	sid := ident.SetNodeSlot(1, 3, "tr:3")
	if got := ident.SlotIDOf("tr:3"); got != sid {
		t.Fatalf("node-slot route %d != string route %d", sid, got)
	}
	if got, ok := ident.NodeSlot(1, 3); !ok || got != sid {
		t.Fatalf("node-slot lookup = %d, %t", got, ok)
	}
}

// TestIdentConcurrentReads exercises the post-run read contract under the
// race detector: once a run has finished interning, any number of readers
// may use the table concurrently.
func TestIdentConcurrentReads(t *testing.T) {
	ident := NewIdent()
	const n = 200
	ids := make([]BodyID, n)
	for i := range ids {
		ids[i] = ident.KeyID(fmt.Sprintf("k:%d", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, id := range ids {
				if got := ident.KeyString(id); got != fmt.Sprintf("k:%d", i) {
					t.Errorf("KeyString(%d) = %q", id, got)
					return
				}
				if got := ident.KeyID(fmt.Sprintf("k:%d", i)); got != id {
					t.Errorf("KeyID read-back = %d, want %d", got, id)
					return
				}
			}
		}()
	}
	wg.Wait()
}
