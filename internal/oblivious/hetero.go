package oblivious

import (
	"fmt"
	"math"

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
// all-ones) π delegates to the homogeneous Theorem 4.1 evaluator.
func WinningProbabilityPi(alphas, pi []float64, capacity float64) (float64, error) {
	return WinningProbabilityPiOpts(alphas, pi, capacity, 0, nil)
}

// WinningProbabilityPiOpts is WinningProbabilityPi with explicit worker
// sharding and observability. workers ≤ 1 builds the tables serially; any
// worker count returns bit-identical results, so callers may key caches on
// the inputs alone. A nil observer disables instrumentation.
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
func WinningProbabilityPiOpts(alphas, pi []float64, capacity float64, workers int, o *obs.Observer) (float64, error) {
	if err := validateAlphas(alphas); err != nil {
		return 0, err
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
	if len(pi) != len(alphas) {
		return 0, fmt.Errorf("oblivious: %d input ranges for %d players", len(pi), len(alphas))
	}
	if workers <= 0 {
		workers = 1
	}
	ev, err := NewEvaluator(pi, capacity, workers)
	if err != nil {
		return 0, err
	}
	p, err := ev.Evaluate(alphas)
	if err != nil {
		return 0, err
	}
	ev.stats.Table.Record(o, len(ev.partial), workers)
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
// WinningProbabilityPiRat): a conservative forward-error analysis of the
// inclusion-exclusion terms — at most n²·2^n compensated operations on
// terms no larger than M = max_m r^m/m! with r = max(δ, n−δ, 1), divided
// by the subset range products (bounded below by min(π_i, 1)^n). piMin is
// the smallest input range (pass 1 for homogeneous inputs). The bound is
// deliberately loose — observed errors at n = 10 are several orders of
// magnitude smaller — but it is certified: the property tests pin the
// float path against the big.Rat oracle within exactly this bound.
func ExactErrorBound(n int, capacity, piMin float64) float64 {
	return sosErrorBound(n, capacity, piMin, float64(n)*float64(n)*math.Exp2(float64(n)))
}

// sosErrorBound is the shared bound kernel: ops compensated operations on
// inclusion-exclusion terms of magnitude ≤ max_m r^m/m!, inflated by the
// worst-case range normalization.
func sosErrorBound(n int, capacity, piMin, ops float64) float64 {
	if n < 1 {
		return 0
	}
	r := math.Max(math.Max(capacity, float64(n)-capacity), 1)
	mag, term := 1.0, 1.0
	for m := 1; m <= n; m++ {
		term *= r / float64(m)
		mag = math.Max(mag, term)
	}
	norm := 1.0
	if piMin > 0 && piMin < 1 {
		norm = math.Pow(piMin, -float64(n))
	}
	return 32 * ops * mag * norm * 0x1p-53
}
