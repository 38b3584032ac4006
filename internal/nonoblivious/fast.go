package nonoblivious

import (
	"math"

	"repro/internal/dist"
	"repro/internal/obs"
)

// WinningProbability evaluates Theorem 5.1: the probability that neither
// bin overflows capacity δ when player i uses threshold thresholds[i] and
// inputs are independent U[0,1]. It is WinningProbabilityPi with π = nil:
// dist.TwoBranchKernel sums Σ_b N₀(b)·N₁(b), N₀ = W₀·C₀ from the
// Proposition 2.2 volumes at δ and N₁ = W₁·C₁ from the Lemma 2.7 sums at
// the shared right end 1 (or at the shared shift, for equal thresholds),
// in O(n²·2^n) time instead of Θ(3^n) per-subset inclusion-exclusion, which
// is what lets MaxNGeneral sit at 20 (its accuracy there: see
// MaxNGeneral). A non-nil observer receives the exact.* work counters;
// nil disables instrumentation.
func WinningProbability(thresholds []float64, capacity float64, o *obs.Observer) (float64, error) {
	return WinningProbabilityPi(thresholds, nil, capacity, o)
}

// ExactErrorBound is the documented absolute-error bound of the float64
// exact evaluators (WinningProbability and WinningProbabilityPi) against
// the big.Rat oracle WinningProbabilityPiRat (dist.WinProbabilityRat):
// dist.VolumeErrorBound over at most n²·3^n compensated operations. The
// 3^n covers the pruned per-set walk of dist.TwoBranchKernel, which runs
// only for heterogeneous threshold vectors with distinct thresholds and
// ranges; the kernel's shared-threshold and shared-right-end tables stay
// within n²·2^n. piMin is the smallest input range (pass 1 for homogeneous
// inputs). Deliberately loose — observed n = 10 errors are orders of
// magnitude smaller — but certified: the property tests pin the float
// path against the rational oracle within exactly this bound.
func ExactErrorBound(n int, capacity, piMin float64) float64 {
	return dist.VolumeErrorBound(n, capacity, piMin, float64(n)*float64(n)*math.Pow(3, float64(n)))
}
