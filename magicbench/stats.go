package main

import (
	"math"
	"sort"
)

// minBeyond is the sample-count rule: a percentile is reported only when
// at least this many samples lie beyond it.
const minBeyond = 10

// pct is one percentile of a sample set, with the counts that make it
// trustworthy or not.
type pct struct {
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
	Valid  bool    `json:"valid"`
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs, which
// it sorts in place.
func percentile(xs []float64, q float64) pct {
	n := len(xs)
	if n == 0 {
		return pct{}
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	beyond := n - 1 - idx
	return pct{Value: xs[idx], N: n, Beyond: beyond, Valid: beyond >= minBeyond}
}

// median is the plain middle value (mean of the two middle values for an
// even count); xs is sorted in place. It is used for the few repeated
// timings of one run, where the sample-count rule cannot apply.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
