package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of sorted by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := min(lo+1, n-1)
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortedCopy returns a sorted copy of values.
func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// median returns the median of values; NaN for an empty sample.
func median(values []float64) float64 {
	return percentile(sortedCopy(values), 50)
}

// quartiles returns the first, second and third quartile of values as
// Python's statistics.quantiles(values, n=4) computes them (the exclusive
// method), which is what the acceptance rule for run-to-run spread is
// written against. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread returns the interquartile range of values as a share of their
// median: the run-to-run noise figure every bound is judged against.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}

// timed is one latency sample with the instant it belongs to on the
// window's clock (the due time of an open-loop request).
type timed struct {
	at, value float64
}

// subWindowPercentile cuts [0, length) into parts equal sub-windows by
// sample instant, takes the p-th percentile inside each, and returns the
// median of those: one burst from a noisy neighbour spoils one sub-window,
// not the metric. The second result is the smallest sub-window's sample
// count.
func subWindowPercentile(samples []timed, length float64, parts int, p float64) (float64, int) {
	buckets := make([][]float64, parts)
	for _, s := range samples {
		k := int(s.at / length * float64(parts))
		k = max(0, min(k, parts-1))
		buckets[k] = append(buckets[k], s.value)
	}
	per := make([]float64, 0, parts)
	least := math.MaxInt
	for _, b := range buckets {
		least = min(least, len(b))
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		per = append(per, percentile(b, p))
	}
	if len(per) == 0 {
		return math.NaN(), 0
	}
	return median(per), least
}
