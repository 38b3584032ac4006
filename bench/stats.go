package main

import (
	"math"
	"slices"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile
// for it to be supported by the data.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of ascending data by linear
// interpolation between the closest ranks: q = 0.5 is the median and q = 1
// the maximum. Empty data yields NaN.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	if lo < 0 {
		return sorted[0]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// beyond counts the samples of ascending data strictly above v.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// quartiles returns the first quartile, median and third quartile of data
// exactly as Python's statistics.quantiles(data, n=4) computes them (the
// default "exclusive" method), so spreads reported here match the ones an
// external checker derives from the same values. It needs two or more
// values; fewer yield NaNs.
func quartiles(data []float64) (q1, q2, q3 float64) {
	ld := len(data)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	d := slices.Clone(data)
	slices.Sort(d)
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		out[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return out[0], out[1], out[2]
}

// median is the middle quartile of data (NaN for fewer than two values,
// except that a single value is its own median).
func median(data []float64) float64 {
	if len(data) == 1 {
		return data[0]
	}
	_, q2, _ := quartiles(data)
	return q2
}

// mean is the arithmetic mean (NaN for no data).
func mean(data []float64) float64 {
	if len(data) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range data {
		s += v
	}
	return s / float64(len(data))
}
