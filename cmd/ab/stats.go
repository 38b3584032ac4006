package main

import (
	"math"
	"slices"
)

// quartiles returns the first quartile, median and third quartile of data
// as Python's statistics.quantiles(data, n=4) computes them (the default
// "exclusive" method), the definition the benchmark's own spreads use. A
// single value is all three; no values yield NaNs.
func quartiles(data []float64) (q1, q2, q3 float64) {
	ld := len(data)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return data[0], data[0], data[0]
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

// signTest returns the two-sided p-value of the sign test for wins
// successes out of trials untied pairs under the null hypothesis that
// either side wins a pair with probability 1/2.
func signTest(wins, trials int) float64 {
	if trials == 0 {
		return 1
	}
	k := min(wins, trials-wins)
	// P(X ≤ k) for X ~ Binomial(trials, 1/2), summed in log space.
	tail := 0.0
	for i := 0; i <= k; i++ {
		lg, _ := math.Lgamma(float64(trials + 1))
		li, _ := math.Lgamma(float64(i + 1))
		lr, _ := math.Lgamma(float64(trials - i + 1))
		tail += math.Exp(lg - li - lr - float64(trials)*math.Ln2)
	}
	return math.Min(1, 2*tail)
}

// pairCount counts, over paired values, the pairs in which head is better
// than base (lower when lowerBetter, else higher) and the untied pairs.
func pairCount(base, head []float64, lowerBetter bool) (better, untied int) {
	for i := range base {
		if head[i] == base[i] {
			continue
		}
		untied++
		if (head[i] < base[i]) == lowerBetter {
			better++
		}
	}
	return better, untied
}
