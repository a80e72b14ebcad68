// Package broadcast implements the Certified Propagation Algorithm (CPA)
// for single-source Byzantine reliable broadcast under the local broadcast
// model — the problem studied by the related-work line the paper builds on
// (Koo [14], Bhandari–Vaidya [3], Tseng–Vaidya–Bhandari [28]).
//
// CPA rules at node v for source s with fault bound f:
//
//   - the source commits its own value and broadcasts it;
//   - a neighbor of the source commits the value it hears from s directly;
//   - any other node commits a value once f+1 distinct neighbors have
//     relayed it;
//   - upon committing, a node relays the value exactly once.
//
// Safety holds whenever each node has at most f faulty neighbors: the
// f+1-of-neighbors certificate always contains an honest voucher. Liveness
// depends on the topology (Koo's local connectivity parameter); the E12
// experiment contrasts this with the paper's consensus conditions — e.g.
// the 5-cycle supports consensus for f = 1 but CPA broadcast stalls on it.
package broadcast

import (
	"fmt"

	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// Msg is the CPA relay payload.
type Msg struct {
	Source graph.NodeID
	Value  sim.Value
}

var _ sim.Payload = Msg{}

// Key returns the canonical identity.
func (m Msg) Key() string {
	return fmt.Sprintf("cpa:%d=%s", m.Source, m.Value)
}

// Rounds returns the engine rounds a CPA broadcast needs on an n-node
// graph (value propagation depth is at most n).
func Rounds(n int) int { return n + 1 }

// Node is a non-faulty CPA participant.
type Node struct {
	g      *graph.Graph
	me     graph.NodeID
	f      int
	source graph.NodeID
	input  sim.Value // used only when me == source

	votes     map[sim.Value]graph.Set // value -> neighbors that relayed it
	voted     graph.Set               // neighbors whose first relay was consumed
	committed bool
	value     sim.Value
	relayed   bool
}

var _ sim.Node = (*Node)(nil)

// New builds a CPA node. input is meaningful only for the source.
func New(g *graph.Graph, f int, me, source graph.NodeID, input sim.Value) *Node {
	return &Node{
		g:      g,
		me:     me,
		f:      f,
		source: source,
		input:  input,
		votes:  make(map[sim.Value]graph.Set),
	}
}

// ID returns the node id.
func (nd *Node) ID() graph.NodeID { return nd.me }

// Committed reports the committed value, if any.
func (nd *Node) Committed() (sim.Value, bool) {
	if !nd.committed {
		return 0, false
	}
	return nd.value, true
}

// Step advances one synchronous round.
func (nd *Node) Step(round int, inbox []sim.Delivery) []sim.Outgoing {
	if round == 0 && nd.me == nd.source {
		nd.committed = true
		nd.value = nd.input
		nd.relayed = true
		return []sim.Outgoing{{To: sim.Broadcast, Payload: Msg{Source: nd.source, Value: nd.input}}}
	}
	for _, d := range inbox {
		m, ok := d.Payload.(Msg)
		if !ok || m.Source != nd.source {
			continue
		}
		if nd.voted.Contains(d.From) {
			continue // only a neighbor's first relay counts
		}
		nd.voted.Add(d.From)
		if d.From == nd.source {
			// Direct reception from the source is authoritative under
			// local broadcast.
			nd.commit(m.Value)
			continue
		}
		vs := nd.votes[m.Value]
		vs.Add(d.From)
		nd.votes[m.Value] = vs
		if vs.Len() >= nd.f+1 {
			nd.commit(m.Value)
		}
	}
	if nd.committed && !nd.relayed {
		nd.relayed = true
		return []sim.Outgoing{{To: sim.Broadcast, Payload: Msg{Source: nd.source, Value: nd.value}}}
	}
	return nil
}

func (nd *Node) commit(v sim.Value) {
	if nd.committed {
		return
	}
	nd.committed = true
	nd.value = v
}
