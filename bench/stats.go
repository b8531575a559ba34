package main

import (
	"math"
	"sort"
)

// kth returns the k-th smallest value of xs (k is 1-based, clamped to
// [1, len(xs)]). xs is not modified. NaN for an empty slice.
func kth(xs []float64, k int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	return s[k-1]
}

// p10 is the benchmark's host-time estimator: the k-th smallest of n
// identical fixed-work iterations with k = ceil(0.1*n). Host noise on a
// shared VM is strictly additive (co-tenant cache and memory contention only
// ever slows an iteration), so a low quantile estimates the program's own
// cost; the second-smallest-in-twenty guards against one lucky outlier.
func p10(xs []float64) float64 { return kth(xs, (len(xs)+9)/10) }

// summary is what every timed series prints: the gated p10 plus the spread
// beside it (q50, q90, n), which is reported but never gated.
type summary struct {
	N             int
	P10, Q50, Q90 float64
}

func summarize(xs []float64) summary {
	n := len(xs)
	return summary{N: n, P10: p10(xs), Q50: kth(xs, (n+1)/2), Q90: kth(xs, n-n/10)}
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), the estimator the acceptance procedure uses for the
// run-to-run spread. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4) // after the clamp, as Python does
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is Python's statistics.median: the middle value, or the mean of the
// two middle values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return math.NaN()
	}
	if m%2 == 1 {
		return s[m/2]
	}
	return (s[m/2-1] + s[m/2]) / 2
}

// spread is the acceptance procedure's noise figure: the interquartile range
// as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}
