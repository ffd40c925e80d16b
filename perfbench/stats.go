package main

import (
	"fmt"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count). It panics on an empty slice: every caller
// measures at least one sample.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// method Python's statistics.quantiles(xs, n=4) uses by default
// ("exclusive"), so the spread this program prints matches the one an
// external check computes from the same values. A single value is its
// own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := [3]float64{}
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure a metric's bound is judged against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// percentile returns the nearest-rank percentile of xs, with the
// percentile given in basis points (9900 is p99) so that the rank is
// exact integer arithmetic: the value at rank ceil(bp·n/10000).
func percentile(xs []float64, bp int) float64 {
	s := sorted(xs)
	return s[rank(len(s), bp)-1]
}

// rank is the 1-based nearest rank of percentile bp among n samples.
func rank(n, bp int) int {
	r := (bp*n + 9999) / 10000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder lists the percentiles a tail figure may be reported at,
// highest first, in basis points.
var tailLadder = []int{9999, 9990, 9900, 9500, 9000, 5000}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean more than one unlucky request.
const minBeyond = 10

// tailPercentile returns the highest percentile on the ladder that has
// at least minBeyond of n samples beyond it, and false when even the
// median does not.
func tailPercentile(n int) (int, bool) {
	for _, bp := range tailLadder {
		if n-rank(n, bp) >= minBeyond {
			return bp, true
		}
	}
	return 0, false
}

// requireTail fails unless n samples support a percentile of at least
// bp under the ten-beyond rule.
func requireTail(n, bp int) error {
	got, ok := tailPercentile(n)
	if !ok || got < bp {
		return fmt.Errorf("%d samples cannot support p%g: need %d beyond it", n, float64(bp)/100, minBeyond)
	}
	return nil
}
