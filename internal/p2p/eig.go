// Package p2p implements the classical point-to-point baseline the paper
// compares against: exponential information gathering (EIG) consensus
// [Pease–Shostak–Lamport / Bar-Noy et al.] layered over Dolev-style
// reliable transmission across vertex-disjoint paths [7]. It requires the
// classical conditions n ≥ 3f+1 and vertex connectivity ≥ 2f+1, strictly
// stronger than the paper's local broadcast conditions — which is exactly
// the comparison experiment E9/E11 quantifies.
//
// Structure: the protocol runs f+1 information-gathering levels; each level
// is one path-annotated relay session (reusing the flood package's
// forwarding machinery, here under the point-to-point transport where
// equivocation is physically possible). A node accepts a (label, value)
// claim from origin w if it heard w directly (adjacent) or received the
// identical claim along f+1 internally-disjoint wv-paths; with ≤ f faults
// and (2f+1)-connectivity, claims by honest origins are accepted correctly
// by everyone, while a faulty origin may at worst split its claims —
// exactly the failure EIG's recursive majority resolves.
package p2p

import (
	"fmt"
	"sort"
	"strings"

	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// Label is an EIG tree label: a sequence of distinct node ids.
type Label []graph.NodeID

// Key returns the canonical string form.
func (l Label) Key() string {
	parts := make([]string, len(l))
	for i, u := range l {
		parts[i] = fmt.Sprintf("%d", u)
	}
	return strings.Join(parts, ",")
}

// Contains reports whether u appears in the label.
func (l Label) Contains(u graph.NodeID) bool {
	for _, v := range l {
		if v == u {
			return true
		}
	}
	return false
}

// Append returns a new label with u appended.
func (l Label) Append(u graph.NodeID) Label {
	c := make(Label, len(l)+1)
	copy(c, l)
	c[len(l)] = u
	return c
}

// EIGBody is one information-gathering claim: "my tree holds Value at
// Label". The flooding origin vouches for it.
type EIGBody struct {
	Label Label
	Value sim.Value
}

var _ flood.Body = EIGBody{}

// Key returns the canonical identity.
func (b EIGBody) Key() string { return "eig:" + b.Label.Key() + "=" + b.Value.String() }

// Slot identifies the claim instance: one value per label per origin.
func (b EIGBody) Slot() string { return "eig:" + b.Label.Key() }

// Node is a non-faulty EIG participant.
type Node struct {
	g     *graph.Graph
	me    graph.NodeID
	f     int
	input sim.Value

	round   int
	level   int              // current gathering level, 1..f+1
	arena   *graph.PathArena // per-run path arena shared by all levels
	ident   *flood.Ident     // per-run identity table shared by all levels
	flooder *flood.Flooder
	scratch flood.QueryScratch   // reused by every disjoint-path query
	tree    map[string]sim.Value // label key -> learned value
	labels  map[string]Label     // label key -> label (for traversal)

	decided  bool
	decision sim.Value
}

var (
	_ sim.Node    = (*Node)(nil)
	_ sim.Decider = (*Node)(nil)
)

// New builds a non-faulty EIG node. The graph must satisfy n ≥ 3f+1 and
// (2f+1)-connectivity for correctness.
func New(g *graph.Graph, f int, me graph.NodeID, input sim.Value) *Node {
	return &Node{
		g:      g,
		me:     me,
		f:      f,
		input:  input,
		arena:  graph.NewPathArena(g),
		ident:  flood.NewIdent(),
		tree:   make(map[string]sim.Value),
		labels: make(map[string]Label),
	}
}

// Rounds returns the engine rounds the protocol needs: f+1 relay sessions.
func Rounds(n, f int) int { return (f + 1) * flood.Rounds(n) }

// ID returns the node id.
func (nd *Node) ID() graph.NodeID { return nd.me }

// Decision returns the decided value once the protocol completes.
func (nd *Node) Decision() (sim.Value, bool) {
	if !nd.decided {
		return 0, false
	}
	return nd.decision, true
}

// Step advances one synchronous round.
func (nd *Node) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	if nd.decided {
		return nil
	}
	sess := flood.Rounds(nd.g.N())
	r := nd.round % sess
	nd.round++
	var out []sim.Outgoing
	if r == 0 {
		nd.level++
		nd.flooder = flood.NewWithState(nd.g, nd.me, nd.arena, nd.ident)
		out = nd.flooder.Start(nd.levelBodies()...)
	} else {
		out = nd.flooder.Deliver(inbox)
	}
	if r == sess-1 {
		nd.harvestLevel()
		if nd.level == nd.f+1 {
			nd.decision = nd.resolve(Label{})
			nd.decided = true
		}
	}
	return out
}

// levelBodies returns the claims broadcast at the current level: the input
// at level 1, and all level-(L−1) tree entries not already containing this
// node afterwards.
func (nd *Node) levelBodies() []flood.Body {
	if nd.level == 1 {
		return []flood.Body{EIGBody{Label: Label{}, Value: nd.input}}
	}
	keys := make([]string, 0, len(nd.tree))
	for k, lbl := range nd.labels {
		if len(lbl) == nd.level-1 && !lbl.Contains(nd.me) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	bodies := make([]flood.Body, 0, len(keys))
	for _, k := range keys {
		bodies = append(bodies, EIGBody{Label: nd.labels[k], Value: nd.tree[k]})
	}
	return bodies
}

// harvestLevel converts the session's accepted claims into tree entries
// β·w := value w claimed for β, filling defaults for missing claims.
func (nd *Node) harvestLevel() {
	receipts := nd.flooder.Store()
	for _, w := range nd.g.Nodes() {
		if w == nd.me {
			continue
		}
		for _, beta := range nd.expectedLabels(w) {
			full := beta.Append(w)
			key := full.Key()
			if _, done := nd.tree[key]; done {
				continue
			}
			v, ok := nd.acceptClaim(receipts, w, beta)
			if !ok {
				v = sim.DefaultValue
			}
			nd.tree[key] = v
			nd.labels[key] = full
		}
	}
	// Own subtree entries: β·me mirrors the own broadcast.
	if nd.level == 1 {
		k := Label{nd.me}.Key()
		nd.tree[k] = nd.input
		nd.labels[k] = Label{nd.me}
	} else {
		var own []Label
		for _, lbl := range nd.labels {
			if len(lbl) == nd.level-1 && !lbl.Contains(nd.me) {
				own = append(own, lbl)
			}
		}
		for _, lbl := range own {
			full := lbl.Append(nd.me)
			nd.tree[full.Key()] = nd.tree[lbl.Key()]
			nd.labels[full.Key()] = full
		}
	}
}

// expectedLabels lists the level-(L−1) labels w should have relayed.
func (nd *Node) expectedLabels(w graph.NodeID) []Label {
	if nd.level == 1 {
		return []Label{{}}
	}
	var out []Label
	keys := make([]string, 0, len(nd.labels))
	for k, lbl := range nd.labels {
		if len(lbl) == nd.level-1 && !lbl.Contains(w) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, nd.labels[k])
	}
	return out
}

// acceptClaim decides which value (if any) origin w established for label β
// this session: the directly heard claim when w is adjacent, otherwise the
// value received identically along f+1 internally-disjoint wv-paths.
func (nd *Node) acceptClaim(receipts *flood.ReceiptStore, w graph.NodeID, beta Label) (sim.Value, bool) {
	if nd.g.HasEdge(w, nd.me) {
		direct := nd.arena.Intern(graph.Path{w, nd.me})
		for r := range receipts.AtPath(direct) {
			b, ok := r.Body.(EIGBody)
			if !ok || b.Label.Key() != beta.Key() {
				continue
			}
			return b.Value, true
		}
		return 0, false
	}
	for _, delta := range []sim.Value{sim.Zero, sim.One} {
		fil := flood.Filter{
			Origins: graph.NewSet(w),
			Body:    nd.ident.KeyID(EIGBody{Label: beta, Value: delta}.Key()),
		}
		if nd.scratch.ReceivedOnDisjointPaths(receipts, fil, nd.f+1, flood.InternallyDisjoint) {
			return delta, true
		}
	}
	return 0, false
}

// resolve computes the classical EIG decision: leaf values at depth f+1,
// recursive majority above (ties and missing children resolve to the
// default value).
func (nd *Node) resolve(beta Label) sim.Value {
	if len(beta) == nd.f+1 {
		if v, ok := nd.tree[beta.Key()]; ok {
			return v
		}
		return sim.DefaultValue
	}
	ones, zeros := 0, 0
	for _, q := range nd.g.Nodes() {
		if beta.Contains(q) {
			continue
		}
		child := beta.Append(q)
		if _, ok := nd.tree[child.Key()]; !ok && len(child) < nd.f+1 {
			continue
		}
		if nd.resolve(child) == sim.One {
			ones++
		} else {
			zeros++
		}
	}
	if zeros > ones {
		return sim.Zero
	}
	if ones > zeros {
		return sim.One
	}
	return sim.DefaultValue
}
