package nonoblivious

import (
	"math"

	"repro/internal/dist"
	"repro/internal/obs"
)

// WinningProbability evaluates Theorem 5.1: the probability that neither
// bin overflows capacity δ when player i uses threshold thresholds[i] and
// inputs are independent U[0,1]. WinningProbabilityPi handles
// heterogeneous ranges x_i ~ U[0, π_i]. A non-nil observer receives the
// exact.* work counters; nil disables instrumentation.
//
// It is a one-shot Evaluator: the Theorem 5.1 sum Σ_b N₀(b)·N₁(b) is
// evaluated from two subset tables instead of Θ(3^n) per-subset
// inclusion-exclusion —
//
//   - N₀ for every bin-0 set is the Proposition 2.2 box-simplex volume at
//     the shared threshold δ, one dist.AllSubsetVolumes table whose signed
//     base terms update incrementally across exponents;
//   - N₁ for every bin-1 set comes from the same per-cardinality
//     sum-over-subsets scheme, except the Lemma 2.7 radix m−δ−|J|+σ_J a
//     depends on the outer cardinality m, so each exponent rebuilds its
//     signed base table before the zeta pass (counted as rebuilt steps).
//
// Total cost O(n²·2^n) time and a few 2^n-entry float64 arrays, which is
// what lets MaxNGeneral sit at 20 instead of the old Θ(3^n) limit of 15
// (its accuracy at that size: see MaxNGeneral).
func WinningProbability(thresholds []float64, capacity float64, o *obs.Observer) (float64, error) {
	ev, err := NewEvaluator(len(thresholds), capacity)
	if err != nil {
		return 0, err
	}
	p, err := ev.Evaluate(thresholds)
	if err != nil {
		return 0, err
	}
	ev.stats.Table.Record(o)
	return p, nil
}

// ExactErrorBound is the documented absolute-error bound of the float64
// exact evaluators (WinningProbability and WinningProbabilityPi) against
// the big.Rat oracle WinningProbabilityPiRat (dist.WinProbabilityRat):
// dist.VolumeErrorBound over at most n²·3^n compensated operations. The
// 3^n covers the pruned per-set walk of dist.TwoBranchKernel, which runs
// only for threshold vectors with distinct thresholds; the homogeneous
// evaluator and the kernel's shared-threshold table stay within n²·2^n. piMin is the smallest input range (pass 1 for
// homogeneous inputs). Deliberately loose — observed n = 10 errors are
// orders of magnitude smaller — but certified: the property tests pin the
// float path against the rational oracle within exactly this bound.
func ExactErrorBound(n int, capacity, piMin float64) float64 {
	return dist.VolumeErrorBound(n, capacity, piMin, float64(n)*float64(n)*math.Pow(3, float64(n)))
}
