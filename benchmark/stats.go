package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile of
// xs, interpolated by the exclusive method of Python's
// statistics.quantiles(xs, n=4), so that the spreads this benchmark prints
// are the ones a reader recomputing them from results.json gets. A single
// sample is its own quartiles; callers never pass an empty slice.
func quartiles(xs []float64) (q1, median, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the middle of xs (see quartiles).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// tailLadder lists, in tenths of a percent and highest first, the
// percentiles a timing's tail is reported at.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tailPermille picks the percentile a timing tail of n samples is reported
// at: the highest one on tailLadder with at least ten samples beyond it.
// The 99th percentile therefore needs n >= 1000; below 20 samples there is
// no tail to report.
func tailPermille(n int) (int, bool) {
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank value of xs at p tenths of a percent.
func percentile(xs []float64, p int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (p*len(s) + 999) / 1000
	return s[max(rank, 1)-1]
}

// geomean returns the geometric mean of xs, all of which must be positive.
func geomean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
