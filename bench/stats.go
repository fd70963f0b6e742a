package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points that Python's
// statistics.quantiles(xs, n=4) returns with its default "exclusive"
// method, reproduced operation for operation so that spreads computed here
// and by any external checker agree exactly. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	const n = 4
	d := sortedCopy(xs)
	ld := len(d)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// quantile returns the p-quantile of xs by the same exclusive rule,
// position p·(n+1) among the sorted values, interpolated linearly and
// clamped to the extreme values instead of extrapolating.
func quantile(xs []float64, p float64) float64 {
	d := sortedCopy(xs)
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	h := p * float64(n+1)
	if h <= 1 {
		return d[0]
	}
	if h >= float64(n) {
		return d[n-1]
	}
	j := int(h)
	return d[j-1] + (h-float64(j))*(d[j]-d[j-1])
}

// median is the middle value (the mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	d := sortedCopy(xs)
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// iqrShare is the distance between the first and third quartiles as a
// share of the median: the run-to-run spread the benchmark's bounds are
// judged against.
func iqrShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

// mad is the median absolute deviation from the median.
func mad(xs []float64) float64 {
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean is the arithmetic mean (NaN for no values).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sumOf(xs) / float64(len(xs))
}

// countAbove counts the values strictly greater than v: the samples beyond
// a reported percentile.
func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}
