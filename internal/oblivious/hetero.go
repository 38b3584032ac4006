package oblivious

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/obs"
)

// MaxNHetero bounds the player count for heterogeneous-input evaluation.
// The sum-over-subsets volume table costs O(n²·2^n) time and a handful of
// 2^n-entry float64 arrays (8·2^n bytes each), so n = 20 — double the old
// Θ(3^n) per-subset-CDF limit — evaluates in well under a second.
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
// (F_∅ ≡ 1) — the φ_δ(k) = F_k(δ)F_{n-k}(δ) product of the homogeneous
// proof with Irwin-Hall CDFs replaced by their heterogeneous
// generalization. It is a one-shot Evaluator: all 2^n CDFs come from one
// dist.AllSubsetVolumes sum-over-subsets table (O(n²·2^n) total) and the
// bin-choice weights from two product tables, making each summand O(1).
func WinningProbabilityPi(alphas, pi []float64, capacity float64, o *obs.Observer) (float64, error) {
	if err := validateAlphas(alphas); err != nil {
		return 0, err
	}
	if len(pi) > 0 && len(pi) != len(alphas) {
		return 0, fmt.Errorf("oblivious: %d input ranges for %d players", len(pi), len(alphas))
	}
	hetero := false
	for _, w := range pi {
		if w != 1 {
			hetero = true
			break
		}
	}
	if !hetero {
		return WinningProbability(alphas, capacity)
	}
	ev, err := NewEvaluator(pi, capacity, 1)
	if err != nil {
		return 0, err
	}
	p, err := ev.Evaluate(alphas)
	if err != nil {
		return 0, err
	}
	ev.stats.Table.Record(o)
	return p, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ExactErrorBound is the documented absolute-error bound of the float64
// heterogeneous evaluator against the exact rational value (see
// WinningProbabilityPiRat): dist.VolumeErrorBound over the at most n²·2^n
// compensated operations of the subset-volume table and the bin-choice
// sum. piMin is the smallest input range (pass 1 for homogeneous inputs).
// The bound is deliberately loose — observed errors at n = 10 are several
// orders of magnitude smaller — but it is certified: the property tests
// pin the float path against the big.Rat oracle within exactly this bound.
func ExactErrorBound(n int, capacity, piMin float64) float64 {
	return dist.VolumeErrorBound(n, capacity, piMin, float64(n)*float64(n)*math.Exp2(float64(n)))
}
