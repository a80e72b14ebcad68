package flood

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// vecBody is a lane-vector-like body: its identity is the rendered key,
// memoized by slice identity.
type vecBody struct{ vals []sim.Value }

func (b vecBody) Key() string {
	var sb strings.Builder
	sb.WriteString("tv:")
	for _, v := range b.vals {
		sb.WriteByte('0' + byte(v))
	}
	return sb.String()
}

func (vecBody) Slot() string { return "" }

func (b vecBody) InternKey(t *Ident) BodyID {
	if id, ok := t.MemoKey(&b.vals[0], len(b.vals), 0); ok {
		return id
	}
	return t.SetMemoKey(&b.vals[0], len(b.vals), 0, t.KeyID(b.Key()))
}

// seqBody is a transcript-like body: a sender's ordered messages, its
// identity the compact content key of SeqKeyID, memoized by slice
// identity.
type seqBody struct {
	from graph.NodeID
	msgs []Msg
}

func (b seqBody) Key() string {
	parts := make([]string, len(b.msgs))
	for i, m := range b.msgs {
		parts[i] = strconv.Itoa(i) + "|" + m.Key()
	}
	return "sq:" + strconv.Itoa(int(b.from)) + ":" + strings.Join(parts, ";")
}

func (b seqBody) Slot() string { return "sq:" + strconv.Itoa(int(b.from)) }

func (b seqBody) InternKey(t *Ident) BodyID {
	at := func(i int) (int32, Msg) { return int32(i), b.msgs[i] }
	if len(b.msgs) == 0 {
		return t.SeqKeyID(b.from, 0, at)
	}
	if id, ok := t.MemoKey(&b.msgs[0], len(b.msgs), int32(b.from)); ok {
		return id
	}
	return t.SetMemoKey(&b.msgs[0], len(b.msgs), int32(b.from), t.SeqKeyID(b.from, len(b.msgs), at))
}

// mixedBodies returns a pool of bodies over arena a mixing every identity
// route: value bodies, plain rendered keys, memoized vectors and sequence
// content keys. Each structured content appears under two distinct slices
// (equal renderings the slice memo cannot see) and one content differs
// from another only in its last element.
func mixedBodies(a *graph.PathArena) []Body {
	pool := []Body{
		ValueBody{Value: sim.Zero}, ValueBody{Value: sim.One},
		testBody{slot: "s", key: "k1"}, testBody{slot: "s", key: "k2"}, testBody{slot: "t", key: "k1"},
	}
	for _, vals := range [][]sim.Value{{1, 0, 1}, {1, 0, 0}, {1}} {
		pool = append(pool, vecBody{vals: slices.Clone(vals)}, vecBody{vals: slices.Clone(vals)})
	}
	p01 := a.Intern(graph.Path{0, 1})
	p012 := a.Extend(p01, 2)
	for _, msgs := range [][]Msg{
		{hinted(a, ValueBody{Value: 1}, a.Root(1)), hinted(a, ValueBody{Value: 0}, p01)},
		{hinted(a, ValueBody{Value: 1}, a.Root(1)), hinted(a, ValueBody{Value: 1}, p01)},
		{hinted(a, ValueBody{Value: 0}, p012)},
		{},
	} {
		// The copy carries a private Π slice and no hint: the receiver
		// resolves the same identity by interning.
		cp := make([]Msg, len(msgs))
		for i, m := range msgs {
			cp[i] = Msg{Body: m.Body, Pi: slices.Clone(m.Pi), Hint: graph.NoPath}
		}
		pool = append(pool, seqBody{from: 1, msgs: msgs}, seqBody{from: 1, msgs: cp})
	}
	return append(pool, seqBody{from: 2, msgs: []Msg{hinted(a, ValueBody{Value: 0}, p01)}})
}

// randomPath returns a random simple path of the complete graph on n nodes
// starting at origin.
func randomPath(rng *rand.Rand, n int, origin graph.NodeID) graph.Path {
	p := graph.Path{origin}
	for _, u := range rng.Perm(n) {
		if len(p) > 1+rng.Intn(n) {
			break
		}
		if graph.NodeID(u) != origin {
			p = append(p, graph.NodeID(u))
		}
	}
	return p
}

// lazyStores returns two stores over one complete-graph arena holding the
// same random mixed receipts: one filled with Add, one a PlannedView
// filled with AddPlanned.
func lazyStores(t *testing.T, seed int64) (added, planned *ReceiptStore) {
	t.Helper()
	const n = 6
	rng := rand.New(rand.NewSource(seed))
	b := newTestStore(t, n)
	a := b.st.Arena()
	pool := mixedBodies(a)
	var recs []Receipt
	for range 200 {
		o := graph.NodeID(rng.Intn(n))
		recs = append(recs, Receipt{Origin: o, PathID: a.Intern(randomPath(rng, n, o)), Body: pool[rng.Intn(len(pool))]})
	}
	added = NewReceiptStore(a, NewIdentOn(a))
	tmpl := NewReceiptStore(a, nil)
	for _, r := range recs {
		added.Add(r)
		tmpl.Add(Receipt{Origin: r.Origin, PathID: r.PathID, Body: CanonValueBody(sim.Zero)})
	}
	planned = tmpl.PlannedView(NewIdentOn(a))
	for _, r := range recs {
		planned.AddPlanned(r)
	}
	return added, planned
}

// TestLazyBodyIDMatchesRendering requires the lazily resolved body
// identities to be what eager interning gave: two receipts share a BodyID
// exactly when their Key renderings are equal, whatever order the
// identities are first read in.
func TestLazyBodyIDMatchesRendering(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		added, planned := lazyStores(t, seed)
		for _, st := range []*ReceiptStore{added, planned} {
			order := rand.New(rand.NewSource(seed)).Perm(st.Len())
			ids := make([]BodyID, st.Len())
			for _, i := range order {
				ids[i] = st.BodyID(i)
				if ids[i] < 0 {
					t.Fatalf("seed %d receipt %d: unresolved identity %d", seed, i, ids[i])
				}
			}
			all := st.All()
			for i := range all {
				if st.BodyID(i) != ids[i] {
					t.Fatalf("seed %d receipt %d: identity changed on re-read", seed, i)
				}
				for j := range i {
					sameKey := all[i].Body.Key() == all[j].Body.Key()
					if (ids[i] == ids[j]) != sameKey {
						t.Fatalf("seed %d receipts %d (%s) and %d (%s): ids %d, %d", seed, i, all[i].Body.Key(), j, all[j].Body.Key(), ids[i], ids[j])
					}
				}
			}
		}
	}
}

// TestLazyCandidatesMatchKeyScan requires a structured Filter.Body query on
// a store whose identities are still unresolved to return what a linear
// scan comparing rendered keys returns.
func TestLazyCandidatesMatchKeyScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		added, planned := lazyStores(t, seed)
		for _, st := range []*ReceiptStore{added, planned} {
			pool := mixedBodies(st.Arena())
			for q := range 40 {
				probe := pool[rng.Intn(len(pool))]
				fil := Filter{Body: st.Ident().BodyKeyID(probe)}
				if q%2 == 0 {
					fil.Origins = graph.NewSet(graph.NodeID(rng.Intn(6)), graph.NodeID(rng.Intn(6)))
				}
				if q%3 == 0 {
					fil.Exclude = graph.NewSet(graph.NodeID(rng.Intn(6)))
				}
				got := Candidates(st, fil)
				want := keyScan(st, fil, probe.Key())
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d query %d (%s, origins %v, exclude %v): got %v, want %v", seed, q, probe.Key(), fil.Origins, fil.Exclude, got, want)
				}
			}
		}
	}
}

// keyScan is the string-keyed reference of Candidates: the receipts in
// acceptance order whose body renders key, filtered by origin and
// exclusion, first content per path.
func keyScan(st *ReceiptStore, fil Filter, key string) []Receipt {
	var out []Receipt
	seen := map[graph.PathID]bool{}
	for _, r := range st.All() {
		if r.Body.Key() != key || (fil.Origins != 0 && !fil.Origins.Contains(r.Origin)) {
			continue
		}
		if fil.Exclude != 0 && !st.Arena().ExcludesInternal(r.PathID, fil.Exclude) {
			continue
		}
		if !seen[r.PathID] {
			seen[r.PathID] = true
			out = append(out, r)
		}
	}
	return out
}

// TestPlanTemplateValueQueriesConcurrent runs value-filter queries on a
// compiled plan's shared templates from many goroutines at once. The
// templates hold value bodies only, so no query resolves (and writes) an
// identity: under -race any write is a reported race, and the identities
// must read back unchanged.
func TestPlanTemplateValueQueriesConcurrent(t *testing.T) {
	g := gen.Figure1b()
	p := CompilePlan(g)
	before := make([][]BodyID, g.N())
	for v, st := range p.tmpl {
		before[v] = slices.Clone(st.bodyIDs)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc QueryScratch
			for _, st := range p.tmpl {
				for o := range g.N() {
					fil := Filter{Origins: graph.NewSet(graph.NodeID(o)), Body: ValueKeyID(sim.Value(w % 2))}
					sc.ReceivedOnDisjointPaths(st, fil, 2, InternallyDisjoint)
				}
			}
		}()
	}
	wg.Wait()
	for v, st := range p.tmpl {
		if !slices.Equal(st.bodyIDs, before[v]) {
			t.Fatalf("template %d: identities written by a query", v)
		}
	}
}

// TestPlanFlooderBoxesThroughPlan floods structured bodies on flooders
// built with NewOnPlan: they must keep no box cache, and every forward's
// hint must verify at the receiver (PathArena.IsExtension), so receivers
// resolve provenance in O(1). The receipts must be those of private-arena
// flooders.
func TestPlanFlooderBoxesThroughPlan(t *testing.T) {
	for name, g := range map[string]*graph.Graph{"figure1a": gen.Figure1a(), "figure1b": gen.Figure1b()} {
		t.Run(name, func(t *testing.T) {
			plan := CompilePlan(g)
			a := plan.Arena()
			onPlan := make([]*Flooder, g.N())
			private := make([]*Flooder, g.N())
			out := make([][]sim.Outgoing, g.N())
			for u := range onPlan {
				me := graph.NodeID(u)
				onPlan[u] = NewOnPlan(plan, me, NewIdentOn(a))
				private[u] = New(g, me)
			}
			bodyOf := func(u int) Body {
				return seqBody{from: graph.NodeID(u), msgs: []Msg{hinted(a, CanonValueBody(sim.Value(u%2)), a.Root(graph.NodeID(u)))}}
			}
			for phase := range 2 {
				for u := range onPlan {
					onPlan[u].Recycle()
					private[u].Recycle()
					out[u] = onPlan[u].Start(bodyOf(u))
					private[u].Start(bodyOf(u))
				}
				for r := 1; r < plan.Rounds(); r++ {
					next := make([][]sim.Outgoing, g.N())
					for v := range onPlan {
						var inbox []sim.Delivery
						for _, u := range g.AdjList(graph.NodeID(v)) {
							for _, o := range out[u] {
								m := o.Payload.(Msg)
								if !a.IsExtension(m.Hint, m.Pi, u) {
									t.Fatalf("phase %d round %d: hint %d of %s from %d does not verify at %d", phase, r, m.Hint, m.Key(), u, v)
								}
								inbox = append(inbox, sim.Delivery{From: u, Payload: o.Payload})
							}
						}
						next[v] = slices.Clone(onPlan[v].Deliver(inbox))
						private[v].Deliver(inbox)
					}
					out = next
				}
				for v := range onPlan {
					if n := len(onPlan[v].fwdCache); n != 0 {
						t.Fatalf("phase %d node %d: %d cached boxes on a plan-backed flooder", phase, v, n)
					}
					got, want := onPlan[v].Store(), private[v].Store()
					if got.Len() != want.Len() || got.Len() == 0 {
						t.Fatalf("phase %d node %d: %d receipts on the plan, %d private", phase, v, got.Len(), want.Len())
					}
					for i, r := range got.All() {
						s := want.All()[i]
						if got.Path(r).Key() != want.Path(s).Key() || r.Body.Key() != s.Body.Key() {
							t.Fatalf("phase %d node %d receipt %d: plan %v %s, private %v %s", phase, v, i, got.Path(r), r.Body.Key(), want.Path(s), s.Body.Key())
						}
					}
				}
			}
		})
	}
}
