package repro

// Ablation benchmarks for the design choices called out in DESIGN.md:
// each pits the implementation the library ships against the naive
// alternative it replaced, so the speedups (and accuracy differences) are
// measurable rather than asserted.
//
//   - Gray-code subset walk vs. recomputing each subset sum from scratch
//     (the inclusion-exclusion kernels of Proposition 2.2 / Lemma 2.4);
//   - Poisson-binomial O(n²) collapse vs. the paper's literal 2^n sum
//     over decision vectors (Theorem 4.1).

import (
	"math"
	"testing"

	"repro/internal/combin"
	"repro/internal/dist"
	"repro/internal/oblivious"
)

// grayCDF is the shipped Lemma 2.4 kernel (incremental Gray-code sums).
func grayCDF(widths []float64, t float64) float64 {
	u, err := dist.NewUniformSum(widths)
	if err != nil {
		return math.NaN()
	}
	return u.CDF(t)
}

// naiveCDF recomputes each subset sum from its bitmask.
func naiveCDF(widths []float64, t float64) float64 {
	m := len(widths)
	var acc combin.Accumulator
	_ = combin.ForEachSubset(m, func(mask uint64) bool {
		s := combin.MaskSum(mask, widths)
		rem := t - s
		if rem <= 0 {
			return true
		}
		v := math.Pow(rem, float64(m))
		if combin.Popcount(mask)%2 == 1 {
			v = -v
		}
		acc.Add(v)
		return true
	})
	norm := 1.0
	for i, w := range widths {
		norm *= w * float64(i+1)
	}
	return acc.Sum() / norm
}

func ablationWidths(m int) []float64 {
	w := make([]float64, m)
	for i := range w {
		w[i] = 0.3 + 0.04*float64(i)
	}
	return w
}

// BenchmarkAblationSubsetGray measures the shipped Gray-code kernel
// (m = 16, 65536 subsets).
func BenchmarkAblationSubsetGray(b *testing.B) {
	w := ablationWidths(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = grayCDF(w, 3.1)
	}
}

// BenchmarkAblationSubsetNaive measures the per-subset recomputation it
// replaced.
func BenchmarkAblationSubsetNaive(b *testing.B) {
	w := ablationWidths(16)
	// Correctness guard: the two kernels must agree.
	if d := math.Abs(grayCDF(w, 3.1) - naiveCDF(w, 3.1)); d > 1e-10 {
		b.Fatalf("kernels disagree by %v", d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = naiveCDF(w, 3.1)
	}
}

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
		k := combin.Popcount(mask) // players choosing bin 1
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
