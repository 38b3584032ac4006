package oblivious

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/problem"
)

// MaxNHetero bounds the player count for heterogeneous-input evaluation.
// The subset tables cost O(n²·2^n) time and a handful of 2^n-entry float64
// arrays (8·2^n bytes each), so n = 20 evaluates in well under a second.
const MaxNHetero = 20

// WinningProbabilityPi generalizes Theorem 4.1 to heterogeneous inputs
// x_i ~ U[0, π_i]: the probability that neither bin overflows capacity δ
// when player i chooses bin 0 with probability alphas[i]. A nil (or
// empty, or all-ones) π delegates to the homogeneous Theorem 4.1
// evaluator; any other π must have one entry per player. A non-nil
// observer receives the exact.* work counters; nil disables
// instrumentation.
//
// With unequal ranges the bin loads are no longer exchangeable, so the
// Poisson-binomial collapse over |b| does not apply; the 2^n bin-choice
// vectors are summed directly,
//
//	P = Σ_S Π_{i∈S}(1-α_i) · Π_{i∉S}α_i · F_{Sᶜ}(δ) · F_S(δ),
//
// where S is the bin-1 set and F_T is the Lemma 2.4 CDF of Σ_{i∈T} x_i
// (F_∅ ≡ 1): dist.TwoBranchKernel with both of player i's loads uniform on
// [0, π_i], whose one CDF table serves both bins. It is
// WinningProbabilityPiInto with a fresh kernel.
func WinningProbabilityPi(alphas, pi []float64, capacity float64, o *obs.Observer) (float64, error) {
	return WinningProbabilityPiInto(new(dist.TwoBranchKernel), alphas, pi, capacity, o)
}

// WinningProbabilityPiInto is WinningProbabilityPi built into the caller's
// kernel k. The CDF table depends only on π and δ, so k keeps it across
// calls on one instance and rebuilds only the mass tables
// (dist.TwoBranchKernel.Build). The value has the bits of
// WinningProbabilityPi whatever k held, and the observer receives the
// table work of this build: none when k kept its table. Homogeneous
// inputs leave k untouched.
func WinningProbabilityPiInto(k *dist.TwoBranchKernel, alphas, pi []float64, capacity float64, o *obs.Observer) (float64, error) {
	if err := validateAlphas(alphas); err != nil {
		return 0, err
	}
	n := len(alphas)
	if len(pi) > 0 && len(pi) != n {
		return 0, fmt.Errorf("oblivious: %d input ranges for %d players", len(pi), n)
	}
	if !heterogeneous(pi) {
		return WinningProbability(alphas, capacity)
	}
	if n > MaxNHetero {
		return 0, problem.PlayerCapError("oblivious: heterogeneous evaluation limited to %d players, got %d", MaxNHetero, n)
	}
	var buf [MaxNHetero]dist.TwoBranch
	players := buf[:n]
	for i, w := range pi {
		if !(w > 0) || math.IsInf(w, 1) {
			return 0, fmt.Errorf("oblivious: input range π[%d] = %v must be strictly positive and finite", i, w)
		}
		players[i] = dist.TwoBranch{Mass0: alphas[i], Hi0: w, Mass1: 1 - alphas[i], Hi1: w}
	}
	if err := k.Build(players, capacity); err != nil {
		return 0, err
	}
	k.Stats().Record(o)
	return k.Sum(), nil
}

// heterogeneous reports whether some input range differs from 1.
func heterogeneous(pi []float64) bool {
	for _, w := range pi {
		if w != 1 {
			return true
		}
	}
	return false
}

// ExactErrorBound is the documented absolute-error bound of the float64
// heterogeneous evaluator against the exact rational value (the branch
// oracle dist.WinProbabilityRat): dist.VolumeErrorBound over the at most
// n²·2^n compensated operations of dist.TwoBranchKernel's one CDF table
// and its pair sum. piMin is the smallest input range (pass 1 for homogeneous inputs).
// The bound is deliberately loose — observed errors at n = 10 are several
// orders of magnitude smaller — but it is certified: the property tests
// pin the float path against the big.Rat oracle within exactly this bound.
func ExactErrorBound(n int, capacity, piMin float64) float64 {
	return dist.VolumeErrorBound(n, capacity, piMin, float64(n)*float64(n)*math.Exp2(float64(n)))
}
