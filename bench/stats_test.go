package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// returns for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 0.2, 5.5, 1.7, 9.0}, 0.95, 3.1, 7.25},
		{[]float64{4, 1, 2}, 1, 2, 4},
		{[]float64{2, 7}, 0.75, 4.5, 8.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestQuantileMedianIQRAndMAD(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quantile(xs, 0.5); !near(got, 5.5) {
		t.Errorf("p50 = %v, want 5.5", got)
	}
	if got := quantile(xs, 0.99); got != 10 {
		t.Errorf("p99 of 10 values = %v, want the maximum 10", got)
	}
	if got := quantile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want the minimum 1", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := iqrShare(xs); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("iqrShare = %v, want %v", got, (8.25-2.75)/5.5)
	}
	if got := mad([]float64{1, 1, 2, 2, 4, 6, 9}); got != 1 {
		t.Errorf("mad = %v, want 1", got)
	}
	if got := countAbove(xs, 8.5); got != 2 {
		t.Errorf("countAbove = %d, want 2", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty input must give NaN")
	}
}
