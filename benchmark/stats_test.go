package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) in Python 3.
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if got := median(c.xs); got != c.m {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.m)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, permille int
		ok          bool
	}{
		{19, 0, false},
		{20, 500, true},
		{40, 750, true},
		{100, 900, true},
		{200, 950, true},
		{999, 950, true},
		{1000, 990, true}, // the first n at which a p99 is reported
		{9999, 990, true},
		{10000, 999, true},
	} {
		p, ok := tailPermille(c.n)
		if p != c.permille || ok != c.ok {
			t.Errorf("tailPermille(%d) = %d, %v; want %d, %v", c.n, p, ok, c.permille, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	if got := percentile(xs, 990); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", got)
	}
	if got := percentile(xs, 500); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile([]float64{4}, 999); got != 4 {
		t.Errorf("p99.9 of one sample = %v, want it", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 2, 2}); math.Abs(got-2) > 1e-12 {
		t.Errorf("geomean(2, 2, 2) = %v, want 2", got)
	}
}
