package repro

// Benchmarks for the exact-evaluation backend. All four pin the n = 10,
// δ = n/3 workload: the general threshold vector (Theorem 5.1), its
// heterogeneous generalization with distinct and with shared thresholds,
// and the heterogeneous oblivious sum.

import (
	"testing"

	"repro/internal/nonoblivious"
	"repro/internal/oblivious"
)

// exactBenchN is the player count of the tracked exact workloads.
const exactBenchN = 10

func exactBenchThresholds() []float64 {
	ths := make([]float64, exactBenchN)
	for i := range ths {
		ths[i] = 0.4 + 0.03*float64(i)
	}
	return ths
}

func exactBenchPi() []float64 {
	pi := make([]float64, exactBenchN)
	for i := range pi {
		pi[i] = 0.5 + 0.05*float64(i)
	}
	return pi
}

func exactBenchAlphas() []float64 {
	alphas := make([]float64, exactBenchN)
	for i := range alphas {
		alphas[i] = 0.3 + 0.04*float64(i)
	}
	return alphas
}

// BenchmarkExactNonoblivious times the exact Theorem 5.1 evaluation of a
// general 10-player threshold vector — the engine Exact backend's hot
// path for threshold rules on homogeneous instances.
func BenchmarkExactNonoblivious(b *testing.B) {
	ths := exactBenchThresholds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nonoblivious.WinningProbability(ths, float64(exactBenchN)/3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactHetero times the heterogeneous Theorem 5.1
// generalization (conditional Lemma 2.4/2.7 subset sums) at n = 10. The
// thresholds are all distinct, so the bin-1 side takes the per-set walk.
func BenchmarkExactHetero(b *testing.B) {
	ths := exactBenchThresholds()
	pi := exactBenchPi()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nonoblivious.WinningProbabilityPi(ths, pi, float64(exactBenchN)/3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactHeteroShared times the heterogeneous Theorem 5.1
// generalization at n = 10 with one threshold shared by every player, the
// case whose bin-1 side is a per-exponent sum-over-subsets table.
func BenchmarkExactHeteroShared(b *testing.B) {
	ths := make([]float64, exactBenchN)
	for i := range ths {
		ths[i] = 0.45
	}
	pi := exactBenchPi()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nonoblivious.WinningProbabilityPi(ths, pi, float64(exactBenchN)/3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactObliviousHetero times the heterogeneous Theorem 4.1
// generalization (per-subset Lemma 2.4 CDF products) at n = 10.
func BenchmarkExactObliviousHetero(b *testing.B) {
	alphas := exactBenchAlphas()
	pi := exactBenchPi()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oblivious.WinningProbabilityPi(alphas, pi, float64(exactBenchN)/3); err != nil {
			b.Fatal(err)
		}
	}
}
