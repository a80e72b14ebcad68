package lbcast

import (
	"context"
	"fmt"

	"lbcast/internal/eval"
)

// BatchInstance is the per-instance configuration of a Batch: the input
// vector and the Byzantine overrides, which are the only things allowed to
// differ between the instances of one batch. Everything else — graph,
// fault bound, algorithm, model — is shared batch-wide via the Batch
// options.
type BatchInstance struct {
	// Inputs maps each node to its binary input.
	Inputs map[NodeID]Value
	// Byzantine overrides the listed nodes with adversarial Node
	// implementations for this instance only. Do not share stateful
	// adversary instances between instances of a batch.
	Byzantine map[NodeID]Node
}

// BatchResult reports the judged outcome of a batched execution.
type BatchResult struct {
	// Results holds one judged Result per instance, in instance order.
	// Per-instance transmission counters are zero: physical transmissions
	// are shared by multiplexing and reported batch-wide below.
	Results []Result
	// Rounds is the number of shared rounds the batch loop executed (the
	// maximum over the instances).
	Rounds int
	// Transmissions counts the batch's physical sends: one multiplexed
	// transmission carries every live instance's payload for a node, so
	// this is roughly 1/B of the independent-run total. Deliveries counts
	// the multiplexed receptions.
	Transmissions int
	Deliveries    int
}

// OK reports whether all three consensus properties hold in every
// instance.
func (r BatchResult) OK() bool {
	for _, res := range r.Results {
		if !res.OK() {
			return false
		}
	}
	return len(r.Results) > 0
}

// Batch is a validated multi-instance execution: B independent consensus
// instances — distinct input vectors and fault patterns — over the same
// graph, executed in one shared round loop. The expensive per-graph work
// (connectivity analysis, step-(b) shortest paths, disjoint-path layouts)
// is computed once and shared by every instance, each node's transmission
// carries all instances' payloads at once, and instances that finish
// retire from the loop individually.
//
// Decisions are identical to running each instance as its own Session: a
// batch changes throughput, never outcomes. A Batch with one instance is
// byte-identical to a Session run of that instance. Like a Session, a
// Batch never mutates after construction and may be Run any number of
// times.
type Batch struct {
	inner *eval.BatchSession
}

// NewBatch validates the graph, the shared options, and every instance,
// and returns a reusable Batch. The shared parameters accept the same
// options as NewSession, except that inputs and Byzantine overrides are
// per instance: WithInputs and WithByzantine are rejected here.
func NewBatch(g *Graph, instances []BatchInstance, opts ...Option) (*Batch, error) {
	spec := eval.Spec{G: g}
	for _, opt := range opts {
		opt(&spec)
	}
	if spec.Inputs != nil || spec.Byzantine != nil {
		return nil, fmt.Errorf("lbcast: batch inputs and Byzantine overrides are per instance; set them on BatchInstance, not as options")
	}
	bs := eval.BatchSpec{
		G:            g,
		F:            spec.F,
		T:            spec.T,
		Algorithm:    spec.Algorithm,
		Model:        spec.Model,
		Equivocators: spec.Equivocators,
		Rounds:       spec.Rounds,
		FullBudget:   spec.FullBudget,
		Observer:     spec.Observer,
	}
	for _, inst := range instances {
		bs.Instances = append(bs.Instances, eval.BatchInstance{
			Inputs:    inst.Inputs,
			Byzantine: inst.Byzantine,
		})
	}
	inner, err := eval.NewBatchSession(bs)
	if err != nil {
		return nil, err
	}
	return &Batch{inner: inner}, nil
}

// Run executes every instance of the batch in one shared round loop and
// judges each instance. The context is checked between rounds;
// cancellation aborts the whole batch mid-execution.
func (b *Batch) Run(ctx context.Context) (BatchResult, error) {
	out, err := b.inner.Run(ctx)
	if err != nil {
		return BatchResult{}, err
	}
	res := BatchResult{
		Results:       make([]Result, len(out.Outcomes)),
		Rounds:        out.Rounds,
		Transmissions: out.Metrics.Transmissions,
		Deliveries:    out.Metrics.Deliveries,
	}
	for i, o := range out.Outcomes {
		res.Results[i] = resultFromOutcome(o)
	}
	return res, nil
}

// RunBatch executes B instances over one graph and judges each instance.
// It is the one-shot form of NewBatch(g, instances, opts...).Run(ctx).
func RunBatch(g *Graph, instances []BatchInstance, opts ...Option) (BatchResult, error) {
	b, err := NewBatch(g, instances, opts...)
	if err != nil {
		return BatchResult{}, err
	}
	return b.Run(context.Background())
}
