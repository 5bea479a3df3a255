package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile for it to be
// reported as measured rather than flagged.
const minTail = 10

// pct is one nearest-rank percentile of a sample.
type pct struct {
	Value float64
	// Tail counts the samples ranked beyond the percentile.
	Tail int
}

// Flagged reports whether fewer than minTail samples lie beyond the
// percentile, so that a single outlier can move it.
func (p pct) Flagged() bool { return p.Tail < minTail }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples: the smallest value with at least p% of the samples at or
// below it. samples need not be sorted; an empty sample gives NaN.
func percentile(samples []float64, p float64) pct {
	n := len(samples)
	if n == 0 {
		return pct{Value: math.NaN()}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(rank, n))
	return pct{Value: s[rank-1], Tail: n - rank}
}

// median is the nearest-rank 50th percentile.
func median(samples []float64) float64 { return percentile(samples, 50).Value }

func sum(samples []float64) float64 {
	var s float64
	for _, v := range samples {
		s += v
	}
	return s
}

// mean is the arithmetic mean (0 for an empty sample).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return sum(samples) / float64(len(samples))
}
