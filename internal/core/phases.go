package core

import (
	"lbcast/internal/combin"
	"lbcast/internal/graph"
)

// PhaseSpec identifies one phase of Algorithm 1/3: a candidate
// non-equivocating fault set F and a candidate equivocating fault set T
// (T is empty in every phase of Algorithm 1), with Excl = F ∪ T, the set
// every step-(b) and step-(c) path of the phase excludes.
type PhaseSpec struct {
	F, T graph.Set
	Excl graph.Set
}

// Algo1Phases enumerates the phases of Algorithm 1 on an n-node graph with
// fault bound f: every F ⊆ V with |F| ≤ f, in deterministic order (by size,
// then lexicographic). Every node enumerates the same order, which the
// algorithm requires.
func Algo1Phases(n, f int) []PhaseSpec {
	nodes := graph.New(n).Nodes()
	var out []PhaseSpec
	combin.SubsetsUpTo(nodes, f, func(s graph.Set) bool {
		out = append(out, PhaseSpec{F: s, Excl: s})
		return true
	})
	return out
}

// HybridPhases enumerates the phases of Algorithm 3: every pair (F, T) with
// T ⊆ V, |T| ≤ t, F ⊆ V−T, |F| ≤ f−|T|, in deterministic order.
func HybridPhases(n, f, t int) []PhaseSpec {
	nodes := graph.New(n).Nodes()
	var out []PhaseSpec
	combin.FTPairs(nodes, f, t, func(fSet, tSet graph.Set) bool {
		out = append(out, PhaseSpec{F: fSet, T: tSet, Excl: fSet | tSet})
		return true
	})
	return out
}

// Phase schedules are pure functions of (n, f, t), but the subset
// enumeration behind them is a real per-node construction cost (every node
// of every run used to enumerate its own copy). The Shared constructors
// memoize the schedule on the Analysis instead: one enumeration per
// topology and fault bound, shared by every node and every recycled run.
// The memoized slice is shared and must be treated as immutable.
type (
	algo1PhasesKey  struct{ f int }
	hybridPhasesKey struct{ f, t int }
)

// algo1PhasesShared returns the memoized Algorithm 1 phase schedule for
// topo's graph.
func algo1PhasesShared(topo *graph.Analysis, f int) []PhaseSpec {
	n := topo.Graph().N()
	return topo.Memo(algo1PhasesKey{f: f}, func() any {
		return Algo1Phases(n, f)
	}).([]PhaseSpec)
}

// hybridPhasesShared returns the memoized Algorithm 3 phase schedule for
// topo's graph.
func hybridPhasesShared(topo *graph.Analysis, f, t int) []PhaseSpec {
	n := topo.Graph().N()
	return topo.Memo(hybridPhasesKey{f: f, t: t}, func() any {
		return HybridPhases(n, f, t)
	}).([]PhaseSpec)
}
