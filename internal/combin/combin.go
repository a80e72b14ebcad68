// Package combin provides the small combinatorial enumerations the paper's
// algorithms need: all subsets of V with cardinality at most f (the phase
// index of Algorithm 1), and (F, T) pairs for the hybrid Algorithm 3.
package combin

import (
	"math"
	"math/big"
	"math/bits"

	"lbcast/internal/graph"
)

// Combinations calls fn with every subset of items of exactly size k, in
// lexicographic order of indices. The slice passed to fn is reused; copy it
// if it must be retained. Enumeration stops early if fn returns false.
func Combinations(items []graph.NodeID, k int, fn func([]graph.NodeID) bool) {
	if k < 0 || k > len(items) {
		return
	}
	buf := make([]graph.NodeID, k)
	var rec func(start, idx int) bool
	rec = func(start, idx int) bool {
		if idx == k {
			return fn(buf)
		}
		for i := start; i <= len(items)-(k-idx); i++ {
			buf[idx] = items[i]
			if !rec(i+1, idx+1) {
				return false
			}
		}
		return true
	}
	rec(0, 0)
}

// SubsetsUpTo calls fn with every subset of items of size 0..maxSize (the
// empty set first, then size 1, ...). Each invocation receives a fresh Set.
// Enumeration stops early if fn returns false.
func SubsetsUpTo(items []graph.NodeID, maxSize int, fn func(graph.Set) bool) {
	if maxSize > len(items) {
		maxSize = len(items)
	}
	for k := 0; k <= maxSize; k++ {
		stopped := false
		Combinations(items, k, func(c []graph.NodeID) bool {
			if !fn(graph.NewSet(c...)) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// CountSubsetsUpTo returns sum_{i=0..maxSize} C(n, i): the number of phases
// Algorithm 1 executes on an n-node graph with fault bound maxSize.
func CountSubsetsUpTo(n, maxSize int) *big.Int {
	total := big.NewInt(0)
	for k := 0; k <= maxSize && k <= n; k++ {
		total.Add(total, new(big.Int).Binomial(int64(n), int64(k)))
	}
	return total
}

// FTPairs calls fn with every pair (F, T) used by Algorithm 3's phases:
// T ⊆ V with |T| <= t, F ⊆ V−T with |F| <= f−|T|. Each invocation receives
// fresh sets. Enumeration stops early if fn returns false.
func FTPairs(items []graph.NodeID, f, t int, fn func(fSet, tSet graph.Set) bool) {
	stopped := false
	SubsetsUpTo(items, t, func(tSet graph.Set) bool {
		rest := make([]graph.NodeID, 0, len(items))
		for _, u := range items {
			if !tSet.Contains(u) {
				rest = append(rest, u)
			}
		}
		SubsetsUpTo(rest, f-tSet.Len(), func(fSet graph.Set) bool {
			if !fn(fSet, tSet) {
				stopped = true
				return false
			}
			return true
		})
		return !stopped
	})
}

// CountFTPairs returns the number of phases Algorithm 3 executes.
func CountFTPairs(n, f, t int) *big.Int {
	total := big.NewInt(0)
	for tt := 0; tt <= t && tt <= n; tt++ {
		ways := new(big.Int).Binomial(int64(n), int64(tt))
		inner := CountSubsetsUpTo(n-tt, f-tt)
		total.Add(total, ways.Mul(ways, inner))
	}
	return total
}

// SubsetCount is CountSubsetsUpTo as an int, saturating at math.MaxInt
// when the count does not fit. It allocates nothing: the round budget of
// every run is derived from it.
func SubsetCount(n, maxSize int) int {
	total := uint64(0)
	for k := 0; k <= maxSize && k <= n; k++ {
		total = satAdd(total, binomial(n, k))
	}
	return satInt(total)
}

// FTPairCount is CountFTPairs as an int, saturating at math.MaxInt.
func FTPairCount(n, f, t int) int {
	total := uint64(0)
	for tt := 0; tt <= t && tt <= n; tt++ {
		total = satAdd(total, satMul(binomial(n, tt), uint64(SubsetCount(n-tt, f-tt))))
	}
	return satInt(total)
}

// SatMul returns a·b for non-negative a and b, saturating at math.MaxInt.
func SatMul(a, b int) int { return satInt(satMul(uint64(a), uint64(b))) }

// binomial returns C(n, k), saturating at math.MaxUint64. The running
// product C(n, i)·(n-i) is exactly divisible by i+1; its 128-bit form
// divides without overflow while the quotient fits in 64 bits.
func binomial(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	k = min(k, n-k)
	c := uint64(1)
	for i := 0; i < k; i++ {
		hi, lo := bits.Mul64(c, uint64(n-i))
		if hi >= uint64(i+1) {
			return math.MaxUint64
		}
		c, _ = bits.Div64(hi, lo, uint64(i+1))
	}
	return c
}

func satAdd(a, b uint64) uint64 {
	if s, carry := bits.Add64(a, b, 0); carry == 0 {
		return s
	}
	return math.MaxUint64
}

func satMul(a, b uint64) uint64 {
	if hi, lo := bits.Mul64(a, b); hi == 0 {
		return lo
	}
	return math.MaxUint64
}

func satInt(x uint64) int {
	if x > math.MaxInt {
		return math.MaxInt
	}
	return int(x)
}
