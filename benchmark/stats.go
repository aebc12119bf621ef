package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of sorted
// values by the nearest-rank rule: the smallest value with at least p
// percent of the sample at or below it. It reports a value that was
// measured, never an interpolation, and 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// samplesBeyond is how many samples must lie above a percentile for
// it to be reported: with fewer, the value is set by a handful of
// requests and does not repeat.
const samplesBeyond = 10

// supported reports whether a sample of n values has at least
// samplesBeyond of them beyond its p-th percentile.
func supported(n int, p float64) bool {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n-rank >= samplesBeyond
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives — the driver's rule, so that
// a spread computed here is the spread the driver will see. It needs
// two values or more.
func quartiles(values []float64) [3]float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the distance between the first and third quartile as a
// share of the median; 0 when there are too few values to tell.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q := quartiles(values)
	if m := median(values); m != 0 { //modlint:allow floatcmp -- division guard
		return (q[2] - q[0]) / math.Abs(m)
	}
	return 0
}
