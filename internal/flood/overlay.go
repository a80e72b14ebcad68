package flood

import (
	"math"

	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file replays value-faulty flooding sessions — tamper, equivocation,
// forgery, a mid-run crash, any custom Byzantine node — from the benign
// plan. Under local broadcast a faulty node b has one freedom per round: one
// set of transmissions that every neighbour hears alike. Everything else in
// the session is value-blind: an honest node accepts a path iff its sender
// accepted (or, for b, sent) the parent path, and forwards it with the same
// body. So one body table indexed by PathID, scoped to the phase, describes
// the whole session: table[X] is set exactly when path X carried a body
// this phase, and honest v's round-r receipt X·v exists iff table[X] is set
// when v steps in round r.
//
// Each phase, honest roots set their own entries at phase start; each
// honest v in round r walks its benign schedule for the round in order,
// installs every entry whose parent is set (rule-(ii) key, initiation flag
// and receipt exactly as Flooder.accept would) and sets the entry's own
// path; and faulty b's round-(r-1) sends are registered into the table by
// the first honest neighbour of b to step in round r, before it reads.
// Registration runs the receivers' own rule-(i) check (Msg.ProvenanceIn on
// the plan's arena) and then requires every send it keeps to fit:
//
//   - its body is a canonical value body;
//   - b is restricted to local broadcast, so every neighbour hears it;
//   - its path has r nodes — the round it was sent in is the one its length
//     implies;
//   - the sends kept this round ascend in PathID, which is b's plan order
//     for the round (a benign schedule interns its entries in order);
//   - in round 1, b's root initiation is among them.
//
// Payloads that are not messages, invalid provenance and repeats of an
// already-set path are dropped: every receiver discards them (rules (i)
// and (ii), first send wins), so they do not break the fit. Under these
// rules each honest receiver's round is byte-identical to Flooder.Deliver
// on its inbox: the inbox holds, sender by ascending sender, each honest
// neighbour's accepted paths in plan order and each faulty neighbour's
// kept sends in plan order, and the schedule filtered by the table lists
// the same paths minus those rule (iii) rejects. From the first round a
// send does not fit, the rest of the phase must flood with Flooder.Deliver
// on the same flooders, whose state the overlay kept exactly; the next
// phase starts on the overlay again. DESIGN.md §13 has the argument.

// Overlay is the phase-scoped body table of one value-faulty flooding run
// replayed from the benign plan, with the registration state of its faulty
// nodes. One Overlay serves every honest node of one run; it is not safe
// for concurrent use, and the engine's one-goroutine round loop is what
// orders its writes before its reads.
type Overlay struct {
	plan   *Plan
	faulty graph.Set
	// unicast holds the faulty nodes the transport lets unicast; their sends
	// never fit, since one neighbour's inbox no longer shows what the others
	// heard.
	unicast graph.Set
	// stamp[P] is gen<<1 | value while path P is set this phase: gen moves
	// on at every phase start instead of clearing the table.
	stamp []uint32
	gen   uint32
	// phase is the phase the table holds, -1 before a run's first.
	phase int
	// regRound and regSet record which faulty nodes' sends have been
	// registered in the current round of the phase.
	regRound int
	regSet   graph.Set
	// misfit is the round of the phase whose sends first did not fit
	// (math.MaxInt while all did); misfits counts this run's phases that
	// had one.
	misfit  int
	misfits int
}

// NewOverlay returns the body table of a run over the benign plan p whose
// value-faulty nodes are faulty; the members of unicast may transmit to
// single neighbours (point-to-point transports, or Hybrid equivocators).
func NewOverlay(p *Plan, faulty, unicast graph.Set) *Overlay {
	return &Overlay{plan: p, faulty: faulty, unicast: unicast & faulty, stamp: make([]uint32, p.arena.Len()), phase: -1}
}

// Faulty returns the run's value-faulty nodes.
func (o *Overlay) Faulty() graph.Set { return o.faulty }

// Rearm prepares the overlay for a new run on the same plan and faulty
// set.
func (o *Overlay) Rearm() { o.phase, o.misfits = -1, 0 }

// Misfits returns the number of phases of the current run that left the
// overlay.
func (o *Overlay) Misfits() int { return o.misfits }

// Open starts phase on the table: every path is unset and every faulty
// node unregistered. Every honest node calls it at its phase start; the
// first call of a phase does the work.
func (o *Overlay) Open(phase int) {
	if o.phase == phase {
		return
	}
	o.phase, o.misfit, o.regRound = phase, math.MaxInt, 0
	o.gen++
	if o.gen >= 1<<31 {
		clear(o.stamp)
		o.gen = 1
	}
}

// Fits reports whether honest node me may take round r (≥ 1) of the
// current phase from the table: no send of the phase has failed to fit so
// far, after registering, from me's inbox, the previous round's sends of
// every faulty neighbour of me not yet registered this round.
func (o *Overlay) Fits(me graph.NodeID, r int, inbox []sim.Delivery) bool {
	if o.misfit <= r {
		return false
	}
	if o.regRound != r {
		o.regRound, o.regSet = r, 0
	}
	for _, b := range o.plan.g.AdjList(me) {
		if !o.faulty.Contains(b) || o.regSet.Contains(b) {
			continue
		}
		o.regSet.Add(b)
		if !o.register(b, r, inbox) {
			o.misfit = r
			o.misfits++
			return false
		}
	}
	return true
}

// register enters faulty b's round-(r-1) sends, read from a neighbour's
// round-r inbox, into the table, and reports whether they all fit.
func (o *Overlay) register(b graph.NodeID, r int, inbox []sim.Delivery) bool {
	if o.unicast.Contains(b) {
		return false
	}
	a := o.plan.arena
	last := graph.NoPath
	for _, d := range inbox {
		if d.From != b {
			continue
		}
		m, ok := d.Payload.(Msg)
		if !ok || m.Body == nil {
			continue
		}
		full := m.ProvenanceIn(a, b)
		if full == graph.NoPath {
			continue
		}
		vb, ok := m.Body.(ValueBody)
		if !ok || vb.Value > sim.One {
			return false
		}
		if o.stamp[full]>>1 == o.gen {
			continue
		}
		if a.PathLen(full) != r || full <= last {
			return false
		}
		last = full
		o.stamp[full] = o.gen<<1 | uint32(vb.Value)
	}
	return r != 1 || o.stamp[a.Root(b)]>>1 == o.gen
}

// StartOverlay is Start of the value body v for a node whose phase runs on
// the overlay o: it also sets the node's root in the table. The flooder
// must run on o's plan (NewOnPlan).
func (f *Flooder) StartOverlay(o *Overlay, v sim.Value) []sim.Outgoing {
	body := CanonValueBody(v)
	o.stamp[f.arena.Root(f.me)] = o.gen<<1 | uint32(body.(ValueBody).Value)
	return f.Start(body)
}

// DeliverOverlay is Deliver for round r (≥ 1) of a phase on the overlay o,
// taken from the table instead of the inbox: the node's benign schedule for
// the round filtered by the table, each entry installed — rule-(ii) key,
// initiation flag, receipt — and forwarded exactly as Flooder.accept would,
// and its own path set for the next round. The caller must have checked
// o.Fits for the round; the flooder must run on o's plan.
func (f *Flooder) DeliverOverlay(o *Overlay, r int) []sim.Outgoing {
	s := &o.plan.sched[f.me]
	out := f.fwdBuf[:0]
	if r >= 1 && r+1 < len(s.roundOff) {
		boxed := o.plan.valueMsgs()
		for i := s.roundOff[r]; i < s.roundOff[r+1]; i++ {
			parent := s.parents[i]
			st := o.stamp[parent]
			if st>>1 != o.gen {
				continue
			}
			f.take(EmptySlot, parent)
			if r == 1 {
				f.initiatedBy[s.origins[i]] = true
			}
			pid := s.pids[i]
			o.stamp[pid] = st
			f.store.Add(Receipt{Origin: s.origins[i], PathID: pid, Body: canonValueBodies[st&1]})
			out = append(out, sim.Outgoing{To: sim.Broadcast, Payload: boxed[st&1][pid]})
		}
	}
	f.fwdBuf = out
	return out
}

// DeltaPlan names a value-faulty world over a benign plan: the plan and
// the faulty set an Overlay is built from. It survives for the benchmark
// probes, which wire worlds node by node (core.VectorPhaseNode's
// UseDeltaReplay); eval builds its overlays directly.
type DeltaPlan struct {
	base   *Plan
	faulty graph.Set
	ov     *Overlay
}

// CompileDelta returns the value-faulty world of base under faulty.
func CompileDelta(base *Plan, faulty graph.Set) *DeltaPlan {
	return &DeltaPlan{base: base, faulty: faulty}
}

// DeltaPlanFor is CompileDelta over the analysis's benign plan.
func DeltaPlanFor(a *graph.Analysis, faulty graph.Set) *DeltaPlan {
	return CompileDelta(PlanFor(a), faulty)
}

// Base returns the benign plan.
func (dp *DeltaPlan) Base() *Plan { return dp.base }

// Overlay returns the world's one overlay, built on first use, for a
// local-broadcast run: every node wired to dp shares it, so dp stands for
// one run at a time.
func (dp *DeltaPlan) Overlay() *Overlay {
	if dp.ov == nil {
		dp.ov = NewOverlay(dp.base, dp.faulty, 0)
	}
	return dp.ov
}

// DeliverDelta is Deliver: a lone flooder has no overlay to read.
func (f *Flooder) DeliverDelta(_ *DeltaPlan, _ int, inbox []sim.Delivery) []sim.Outgoing {
	return f.Deliver(inbox)
}
