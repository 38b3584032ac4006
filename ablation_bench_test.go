package repro

// Ablation benchmark for a design choice called out in DESIGN.md: the
// Poisson-binomial O(n²) collapse the library ships against the paper's
// literal 2^n sum over decision vectors (Theorem 4.1), so the speedup is
// measurable rather than asserted.

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/combin"
	"repro/internal/dist"
	"repro/internal/oblivious"
)

// theorem41Enumerated is the paper's literal Theorem 4.1: a sum over all
// 2^n decision vectors.
func theorem41Enumerated(alphas []float64, capacity float64) (float64, error) {
	n := len(alphas)
	cdf := make([]float64, n+1)
	var l dist.IrwinHallLadder
	l.Reset(capacity, n)
	for k := 0; k <= n; k++ {
		if k > 0 {
			l.Step()
		}
		cdf[k] = l.CDF(0)
	}
	var acc combin.Accumulator
	err := combin.ForEachSubset(n, func(mask uint64) bool {
		k := bits.OnesCount64(mask) // players choosing bin 1
		prob := 1.0
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				prob *= 1 - alphas[i]
			} else {
				prob *= alphas[i]
			}
		}
		acc.Add(cdf[k] * cdf[n-k] * prob)
		return true
	})
	if err != nil {
		return 0, err
	}
	return acc.Sum(), nil
}

func ablationAlphas(n int) []float64 {
	a := make([]float64, n)
	for i := range a {
		a[i] = 0.3 + 0.02*float64(i)
	}
	return a
}

// BenchmarkAblationTheorem41DP measures the shipped O(n²)
// Poisson-binomial collapse at n = 20.
func BenchmarkAblationTheorem41DP(b *testing.B) {
	alphas := ablationAlphas(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oblivious.WinningProbability(alphas, 20.0/3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTheorem41Enumerated measures the literal 2^n sum at the
// same n = 20 (about one million decision vectors per call).
func BenchmarkAblationTheorem41Enumerated(b *testing.B) {
	alphas := ablationAlphas(20)
	dp, err := oblivious.WinningProbability(alphas, 20.0/3)
	if err != nil {
		b.Fatal(err)
	}
	enum, err := theorem41Enumerated(alphas, 20.0/3)
	if err != nil {
		b.Fatal(err)
	}
	if math.Abs(dp-enum) > 1e-10 {
		b.Fatalf("DP %v vs enumeration %v disagree", dp, enum)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := theorem41Enumerated(alphas, 20.0/3); err != nil {
			b.Fatal(err)
		}
	}
}
