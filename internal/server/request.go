package server

import (
	"fmt"
	"sort"
	"strings"

	"lbcast/internal/adversary"
	"lbcast/internal/core"
	"lbcast/internal/eval"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file is the daemon's wire schema: the JSON request and response
// bodies of POST /v1/decide, their validation, and the translation into
// the eval layer's BatchInstance / BatchSpec vocabulary. Every field that
// affects the decision is part of the packing key (see compatKey), so two
// requests land in the same eval.BatchSpec group exactly when batching
// them is outcome-preserving.

// FaultSpec plants one named Byzantine strategy in a decision request.
// The strategies mirror the Monte Carlo sweep's library: "silent",
// "tamper", "equivocate", "forge". Randomized strategies (tamper, forge)
// derive all behavior from Seed, so a request is a complete reproduction
// record.
type FaultSpec struct {
	// Node is the vertex to corrupt.
	Node int `json:"node"`
	// Strategy names the adversarial behavior.
	Strategy string `json:"strategy"`
	// Seed drives the randomized strategies (tamper, forge); ignored by
	// the deterministic ones.
	Seed int64 `json:"seed,omitempty"`
}

// DecideRequest is the JSON body of POST /v1/decide: one consensus
// decision to compute. Requests with identical shared parameters (graph,
// f, t, algorithm, rounds, full_budget) are packed into one batched
// execution; inputs and faults are per request.
type DecideRequest struct {
	// Graph is the topology, in the generator spec syntax shared with the
	// CLIs ("figure1a", "harary:4:10", "circulant:8:1,2", ...).
	Graph string `json:"graph"`
	// F is the fault bound the honest nodes assume.
	F int `json:"f"`
	// T is the equivocation bound (algorithm 3 only).
	T int `json:"t,omitempty"`
	// Algorithm selects the protocol: 1 (tight), 2 (efficient), or 3
	// (hybrid). 0 defaults to 1.
	Algorithm int `json:"algorithm,omitempty"`
	// Inputs assigns node i the binary input Inputs[i]; its length must
	// equal the graph order unless InputPattern is used instead.
	Inputs []int `json:"inputs,omitempty"`
	// InputPattern assigns node i the input InputPattern[i mod len]; an
	// alternative to spelling out Inputs.
	InputPattern []int `json:"input_pattern,omitempty"`
	// Faults plants Byzantine strategies on the listed nodes.
	Faults []FaultSpec `json:"faults,omitempty"`
	// Rounds overrides the algorithm's computed round budget (0 = derive).
	Rounds int `json:"rounds,omitempty"`
	// FullBudget disables early termination.
	FullBudget bool `json:"full_budget,omitempty"`
}

// OutcomeJSON is the decision part of a response: exactly the fields an
// independent Session run of the same request would produce, so daemon
// responses are byte-comparable against library runs. Engine transmission
// counters are deliberately absent — a batched transmission is shared by
// every co-packed request and cannot be attributed to one of them (the
// totals are on /metrics).
type OutcomeJSON struct {
	// Decisions maps each honest node to its decided value.
	Decisions map[graph.NodeID]sim.Value `json:"decisions"`
	// Agreement, Validity, Termination are the three judged consensus
	// properties.
	Agreement   bool `json:"agreement"`
	Validity    bool `json:"validity"`
	Termination bool `json:"termination"`
	// Rounds is the number of rounds this request's instance ran; Budget
	// is the round allowance it had.
	Rounds int `json:"rounds"`
	Budget int `json:"budget"`
}

// BatchInfo reports how the scheduler executed a request.
type BatchInfo struct {
	// Size is the number of co-packed requests in the executed group.
	Size int `json:"size"`
	// WaitMicros is the time the request spent queued before its group
	// was dispatched, in microseconds.
	WaitMicros int64 `json:"wait_micros"`
}

// DecideResponse is the JSON body of a successful POST /v1/decide.
type DecideResponse struct {
	// Outcome is the judged decision, identical to an independent Session
	// run of the same request.
	Outcome OutcomeJSON `json:"outcome"`
	// Batch describes the scheduling of this request.
	Batch BatchInfo `json:"batch"`
}

// ErrorResponse is the JSON body of a failed request.
type ErrorResponse struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
}

// outcomeJSON projects a judged eval outcome onto the wire form. The
// server and the parity tests share this one conversion, so the
// byte-identity contract is checked against the same encoding the daemon
// serves.
func outcomeJSON(o eval.Outcome) OutcomeJSON {
	return OutcomeJSON{
		Decisions:   o.Decisions,
		Agreement:   o.Agreement,
		Validity:    o.Validity,
		Termination: o.Termination,
		Rounds:      o.Rounds,
		Budget:      o.Budget,
	}
}

// work is a validated decision request, translated into the eval
// vocabulary and ready for packing: the shared batch parameters (base +
// key), the per-request instance, and the graph cache entry the batch
// will draw its memoized analysis from.
type work struct {
	key   string
	entry *graphEntry
	base  eval.BatchSpec // shared parameters; Instances empty
	inst  eval.BatchInstance
}

// algorithmOf maps the wire algorithm number to the eval enum.
func algorithmOf(a int) (eval.Algorithm, error) {
	switch a {
	case 0, 1:
		return eval.Algo1, nil
	case 2:
		return eval.Algo2, nil
	case 3:
		return eval.Algo3, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %d (want 1, 2, or 3)", a)
	}
}

// buildWork validates req against the graph cache and translates it into
// packable work. All validation happens here, at admission: a request
// that passes buildWork cannot fail its batch later (every spec handed to
// the scheduler revalidates under the same rules), so one malformed
// request can never poison the group it would have been packed with.
func buildWork(cache *graphCache, req *DecideRequest) (*work, error) {
	if req.Graph == "" {
		return nil, fmt.Errorf("graph is required")
	}
	entry, err := cache.lookup(req.Graph)
	if err != nil {
		return nil, err
	}
	alg, err := algorithmOf(req.Algorithm)
	if err != nil {
		return nil, err
	}
	n := entry.g.N()
	pattern := req.Inputs
	modular := false
	switch {
	case len(req.Inputs) > 0 && len(req.InputPattern) > 0:
		return nil, fmt.Errorf("inputs and input_pattern are mutually exclusive")
	case len(req.Inputs) > 0:
		if len(req.Inputs) != n {
			return nil, fmt.Errorf("inputs has %d entries, graph has %d nodes", len(req.Inputs), n)
		}
	case len(req.InputPattern) > 0:
		pattern, modular = req.InputPattern, true
	default:
		return nil, fmt.Errorf("inputs or input_pattern is required")
	}
	// The dense slab is all the probe session and the packed batch read.
	slab := make([]sim.Value, n)
	for u := range slab {
		idx := u
		if modular {
			idx = u % len(pattern)
		}
		v := pattern[idx]
		if v != 0 && v != 1 {
			return nil, fmt.Errorf("input for node %d is %d (want 0 or 1)", u, v)
		}
		slab[u] = sim.Value(v)
	}
	byz := make(map[graph.NodeID]sim.Node, len(req.Faults))
	phaseLen := core.PhaseRounds(n)
	for _, f := range req.Faults {
		if f.Node < 0 || f.Node >= n {
			return nil, fmt.Errorf("fault node %d out of range (n=%d)", f.Node, n)
		}
		u := graph.NodeID(f.Node)
		if _, dup := byz[u]; dup {
			return nil, fmt.Errorf("node %d has two fault strategies", f.Node)
		}
		if byz[u], err = adversary.New(f.Strategy, entry.g, u, phaseLen, f.Seed); err != nil {
			return nil, err
		}
	}
	w := &work{
		key:   compatKey(entry, req, alg),
		entry: entry,
		base: eval.BatchSpec{
			G:          entry.g,
			F:          req.F,
			T:          req.T,
			Algorithm:  alg,
			Rounds:     req.Rounds,
			FullBudget: req.FullBudget,
		},
		inst: eval.BatchInstance{InputSlab: slab, Byzantine: byz},
	}
	// Full eval-layer validation of this request alone (cheap: no plan is
	// compiled until Run). Shared-parameter errors — negative f, t > f,
	// out-of-range overrides — surface here as a 400 instead of failing a
	// packed batch.
	probe := w.base
	probe.Instances = []eval.BatchInstance{w.inst}
	if _, err := eval.NewBatchSessionShared(probe, entry.topo); err != nil {
		return nil, fmt.Errorf("invalid request: %w", err)
	}
	return w, nil
}

// compatKey is the packing key: requests share an executed batch exactly
// when every batch-wide parameter matches. The graph contributes its
// canonical edge-list form, so "figure1b" and "circulant:8:1,2" — the
// same topology under two spec strings — pack together.
func compatKey(entry *graphEntry, req *DecideRequest, alg eval.Algorithm) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|f=%d|t=%d|alg=%d|rounds=%d|full=%v",
		entry.canon, req.F, req.T, alg, req.Rounds, req.FullBudget)
	return sb.String()
}

// sortedClients returns the keys of a per-client map in stable order (the
// /metrics exposition must not flap between scrapes).
func sortedClients[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
