package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}, {99, 49.6},
	} {
		if got := percentile(sorted, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample must be NaN")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

// The expected values are statistics.quantiles(values, n=4) from Python
// 3.11, the rule the acceptance check is written against.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3, 3, 3, 3}, 3, 3, 3},
		{[]float64{1.5, 9, 2.25, 4, 100, 7}, 2.0625, 5.5, 31.75},
	} {
		q1, q2, q3 := quartiles(c.values)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.values, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	// (8.25 - 2.75) / 5.5
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{4, 4, 4}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}

func TestSubWindowPercentileIgnoresOneBurst(t *testing.T) {
	// Five sub-windows of ten samples at value 1; the third carries a burst
	// of 100s. The median over sub-windows must not see it; the
	// whole-window p99 would.
	var samples []timed
	for w := 0; w < 5; w++ {
		for i := 0; i < 10; i++ {
			v := 1.0
			if w == 2 && i >= 5 {
				v = 100
			}
			samples = append(samples, timed{at: float64(w) + float64(i)/10, value: v})
		}
	}
	got, least := subWindowPercentile(samples, 5, 5, 99)
	if got != 1 || least != 10 {
		t.Errorf("subWindowPercentile = %v (least %d), want 1 (10)", got, least)
	}
	// Samples on the window's far edge land in the last sub-window.
	got, least = subWindowPercentile([]timed{{at: 5, value: 3}, {at: 0, value: 1}}, 5, 5, 50)
	if got != 2 || least != 0 {
		t.Errorf("edge samples: got %v (least %d), want 2 (0)", got, least)
	}
}
