package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{3.5, 1.25, 9, 2, 7.75}, 1.625, 3.5, 8.375},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	for _, c := range []struct {
		bp   int
		want float64
	}{{5000, 500}, {9900, 990}, {9990, 999}, {10000, 1000}, {1, 1}} {
		if got := percentile(xs, c.bp); got != c.want {
			t.Errorf("p%g of 1..1000 = %v, want %v", float64(c.bp)/100, got, c.want)
		}
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
		ok   bool
	}{
		{1000, 9900, true},   // rank 990: ten beyond
		{999, 9500, true},    // p99 would leave nine beyond
		{10000, 9990, true},  // rank 9990: ten beyond
		{100000, 9999, true}, // rank 99990: ten beyond
		{100, 9000, true},    // p95 leaves five beyond
		{20, 5000, true},     // the median of twenty leaves ten beyond
		{19, 0, false},       // even the median leaves only nine
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, got) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%g leaves %d beyond", c.n, float64(got)/100, c.n-rank(c.n, got))
		}
	}
	if err := requireTail(1000, 9900); err != nil {
		t.Errorf("1000 samples should support p99: %v", err)
	}
	if err := requireTail(999, 9900); err == nil {
		t.Error("999 samples should not support p99")
	}
}
