package eval

import (
	"fmt"
	"sync/atomic"

	"lbcast/internal/check"
	"lbcast/internal/core"
	"lbcast/internal/faultinject"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file wires the fault-injection engine (internal/faultinject) into the
// runner: the round loop consults the spec's schedule at round boundaries,
// applying each boundary's events to two masks at once — the engine's
// routing topology (sim.MaskedTopology) and the connectivity re-analysis
// view (graph.MaskedView). The routing mask changes what the network
// delivers; the analysis view tracks how far below the paper's thresholds
// the masked world has dropped, which is what turns a failed run into a
// DegradedConnectivity verdict instead of a protocol violation.

// Process-wide fault-injection counters (lbcastd /metrics and the CLI JSON
// export them, like the plan and pool counters).
var (
	// churnEvents counts topology events applied at round boundaries.
	churnEvents atomic.Uint64
	// planInvalidations counts runs whose compiled-plan replay was cut back
	// by a topology schedule: a replay-qualified run degraded to the taint
	// frontier (or to fully dynamic) because events invalidate the plan for
	// the rounds at and after the first event.
	planInvalidations atomic.Uint64
)

// ReadChurnStats returns the cumulative fault-injection counters: topology
// events applied at round boundaries, and replay-qualified runs whose
// compiled-plan replay a schedule invalidated (wholly or past the taint
// frontier).
func ReadChurnStats() (events, invalidations uint64) {
	return churnEvents.Load(), planInvalidations.Load()
}

// requiredConnectivity returns the paper's connectivity threshold for the
// spec's model: ⌊3f/2⌋+1 under local broadcast (Theorem 4.1),
// ⌊3(f−t)/2⌋+2t+1 under the hybrid model (Theorem 6.1), and the classical
// 2f+1 under point-to-point. A masked world below this is outside every
// guarantee the protocol has — the DegradedConnectivity regime.
func requiredConnectivity(spec Spec) int {
	switch spec.Model {
	case sim.PointToPoint:
		return check.PointToPointConnectivity(spec.F)
	case sim.Hybrid:
		return check.HybridConnectivity(spec.F, spec.T)
	default:
		return check.LocalBroadcastConnectivity(spec.F)
	}
}

// requiredMinDegree returns the paper's minimum-degree threshold (2f under
// local broadcast; the other models gate on connectivity alone here).
func requiredMinDegree(spec Spec) int {
	if spec.Model == sim.LocalBroadcast {
		return check.LocalBroadcastDegree(spec.F)
	}
	return 0
}

// churnFrontierPhase returns the taint frontier of a phase-based replay run
// under the schedule: the index of the phase containing the first event.
// Phases strictly before it see only unmasked transmissions (events apply
// before the named round's sends, and a phase spans PhaseRounds(n)
// consecutive rounds), so their compiled-plan replay stays byte-identical;
// the frontier phase and everything after run dynamically.
func churnFrontierPhase(g *graph.Graph, sched *faultinject.Schedule) int {
	first := sched.FirstRound()
	if first < 0 {
		return int(^uint(0) >> 1) // empty schedule: no frontier
	}
	return first / core.PhaseRounds(g.N())
}

// churnRun is the per-run fault-injection state driven by the round loop:
// the schedule cursor plus the two masks it feeds, and the minimum
// connectivity/degree observed across the run's boundaries.
type churnRun struct {
	sched   *faultinject.Schedule
	cursor  faultinject.Cursor
	mask    *sim.MaskedTopology
	view    *graph.MaskedView
	applied int
	minConn int
	minDeg  int
}

// newChurnRun builds the injection state for one run over the masked
// routing topology. The analysis view is private to the run (it is not
// concurrency-safe), while the static analysis underneath is shared.
func newChurnRun(topo *graph.Analysis, mask *sim.MaskedTopology, sched *faultinject.Schedule) *churnRun {
	c := &churnRun{
		sched: sched,
		mask:  mask,
		view:  graph.NewMaskedView(topo),
	}
	c.begin()
	return c
}

// reset re-arms recycled injection state for a (possibly different)
// schedule of the same shape: both masks restored to the static adjacency,
// the cursor rewound, the minima re-baselined.
func (c *churnRun) reset(sched *faultinject.Schedule) {
	c.sched = sched
	c.mask.ResetMask()
	c.view.ResetMask()
	c.begin()
}

// begin initializes the run baseline: the cursor at the schedule start, no
// events applied, and the unmasked thresholds as the observed minima.
func (c *churnRun) begin() {
	c.cursor = c.sched.Cursor()
	c.applied = 0
	c.minConn = c.view.Connectivity()
	c.minDeg = c.view.MinDegree()
}

// boundary applies the events scheduled for round r (before its
// transmissions are routed) and folds the masked world's connectivity and
// minimum degree into the run minima. Rounds without events cost two slice
// reads.
func (c *churnRun) boundary(r int) {
	n := c.cursor.Apply(c.mask.Graph(), r, c.mask, c.view)
	if n == 0 {
		return
	}
	c.applied += n
	if conn := c.view.Connectivity(); conn < c.minConn {
		c.minConn = conn
	}
	if deg := c.view.MinDegree(); deg < c.minDeg {
		c.minDeg = deg
	}
}

// finish publishes the run's event count to the process-wide counter and
// annotates the outcome with the injection record: events applied, the
// minimum masked connectivity observed, and the degraded classification —
// the masked world dropped below the paper's thresholds for this spec, so a
// failed outcome is the expected behavior of an infeasible world, not a
// protocol violation.
func (c *churnRun) finish(spec Spec, out *Outcome) {
	churnEvents.Add(uint64(c.applied))
	out.ChurnEvents = c.applied
	out.MinConnectivity = c.minConn
	out.DegradedConnectivity = c.minConn < requiredConnectivity(spec) ||
		c.minDeg < requiredMinDegree(spec)
}

// noteChurnInvalidation counts one plan invalidation when a spec that would
// engage a replay tier absent its schedule has an event inside the run's
// budget: the compiled plan (benign, masked, or delta) was cut back to the
// taint frontier, or abandoned entirely for a Byzantine-plus-churn world.
func noteChurnInvalidation(spec Spec, budget int) {
	if spec.forceDynamic || (spec.Algorithm != Algo1 && spec.Algorithm != Algo3) {
		return
	}
	if first := spec.Churn.FirstRound(); first >= 0 && first < budget {
		planInvalidations.Add(1)
	}
}

// validateChurn checks the spec's schedule against its graph during
// normalization.
func validateChurn(spec *Spec) error {
	if spec.Churn.Empty() {
		return nil
	}
	if err := spec.Churn.Validate(spec.G); err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	return nil
}
