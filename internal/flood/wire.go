package flood

import (
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file is the path-identity side of the wire format: the hint a
// message carries beside Π, how a receiver resolves a delivery through it,
// and how senders attach it.
//
// The hint contract, in one place. What a receiver needs from (body, Π)
// heard from neighbor u is the identity of Π·u in its own arena. A sender
// that shares that arena already knows it — an honest forwarder has just
// interned Π·me for its own receipt — and says so: Msg.Hint is the
// sender's PathID for "Π extended by me", and Pi is the arena's own
// materialized slice of Π. The claim is UNTRUSTED. The receiver accepts it
// only when, in its own arena, the named path ends at the engine-
// authenticated sender and its prefix's canonical slice is pointer-and-
// length identical to Pi (graph.PathArena.IsExtension): the arena builds
// that slice once and never rebuilds it, and Path contents are immutable
// module-wide, so the identical slice can only be that prefix — the
// argument the arena's slice memo rests on, without the map probe. Every
// other claim — an id from another arena, out of range, ending at another
// node, or the right id beside a different slice (equal contents included)
// — is indistinguishable from no claim at all: the receiver interns Π and
// extends it itself, exactly as before hints existed. Identity is always
// established by the receiver; the hint only names where to look. (A bare
// literal Msg{Body:, Pi:} claims id 0, which is just another claim.)

// ProvenanceIn returns the identity of Π·from in the receiver's arena a,
// or NoPath when that is not a simple path of the graph (or, on a frozen
// arena, not one it holds) — rule (i). A verified hint answers in O(1);
// anything else pays InternCached — a memo probe on a growing arena, the
// full walk on a frozen one, whose memo never learns — and one Extend.
func (m Msg) ProvenanceIn(a *graph.PathArena, from graph.NodeID) graph.PathID {
	if a.IsExtension(m.Hint, m.Pi, from) {
		return m.Hint
	}
	pi := graph.NoPath
	if len(m.Pi) > 0 {
		if pi = a.InternCached(m.Pi); pi == graph.NoPath {
			return graph.NoPath
		}
	}
	return a.Extend(pi, from) // Root(from) for an initiation
}

// hinted returns the message a sender on arena a transmits for body when
// its own extended path Π·sender is ext: Pi is a's canonical slice of ext's
// prefix (empty for an initiation, where ext is the sender's single-node
// path) and the hint is ext.
func hinted(a *graph.PathArena, body Body, ext graph.PathID) Msg {
	return Msg{Body: body, Pi: a.Path(a.Parent(ext)), Hint: ext}
}

// Box returns, as a payload, the message a sender on the plan's arena
// transmits for body when its own extended path Π·sender is ext — the
// receipt path of the forward it relays, or its single-node path for an
// initiation. For the two canonical value bodies — all of step-(a)
// flooding — it is the plan's shared pre-boxed message and costs nothing;
// anything else (lane vectors, reports, a transmission the plan never
// scheduled) is boxed per call. The table is immutable: flooders running
// the dynamic rules on the plan's arena, replaying nodes and arena-walking
// adversaries of any number of concurrent runs all box from it.
func (p *Plan) Box(body Body, ext graph.PathID) sim.Payload {
	if vb, ok := body.(ValueBody); ok && vb.Value <= sim.One {
		if pl := p.valueMsgs()[vb.Value][ext]; pl != nil {
			return pl
		}
	}
	return hinted(p.arena, body, ext)
}
