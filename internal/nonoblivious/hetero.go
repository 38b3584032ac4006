package nonoblivious

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/combin"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/problem"
)

// MaxNHetero bounds the player count for heterogeneous-input evaluation.
// Unlike the homogeneous path, the bin-1 numerator's inclusion-exclusion
// threshold δ − Σ_{i∈S} a_i varies with the outer set S, which defeats the
// sum-over-subsets collapse; the evaluation falls back to a pruned
// depth-first walk per outer set (worst case Θ(3^n), heavily cut by the
// positivity guards), so the heterogeneous cap stays at the old general
// limit while the homogeneous MaxNGeneral moved to 20.
const MaxNHetero = 15

// WinningProbabilityPi generalizes Theorem 5.1 to heterogeneous inputs
// x_i ~ U[0, π_i]: the probability that neither bin overflows capacity δ
// when player i sends its input to bin 0 exactly when x_i ≤ thresholds[i].
// A nil (or empty, or all-ones) π delegates to the homogeneous Theorem 5.1
// evaluator; any other π must have one entry per player. Thresholds stay
// in [0, 1], matching the rule class the model layer admits; a threshold
// above π_i simply sends player i to bin 0 always.
func WinningProbabilityPi(thresholds, pi []float64, capacity float64) (float64, error) {
	return WinningProbabilityPiOpts(thresholds, pi, capacity, 0, nil)
}

// WinningProbabilityPiOpts is WinningProbabilityPi with explicit worker
// sharding and observability. workers ≤ 1 evaluates serially; every worker
// count returns bit-identical results (fixed chunk grid, fixed-order
// reduction). A nil observer disables instrumentation.
//
// The evaluation conditions per bin exactly as the homogeneous proof does.
// Writing S for the bin-1 set, Z = Sᶜ, c_i = min(a_i, π_i) and
// w_i = π_i − a_i:
//
//   - bin 0 contributes P(x_i ≤ a_i ∀i∈Z, Σ_Z x ≤ δ) =
//     Vol{0 ≤ y_i ≤ c_i, Σ y ≤ δ} / Π_{i∈Z} π_i — a Proposition 2.2
//     volume at the shared threshold δ, so all 2^n of them come from one
//     dist.AllSubsetVolumes sum-over-subsets table;
//   - bin 1 contributes P(x_i > a_i ∀i∈S, Σ_S x ≤ δ) =
//     Vol{0 ≤ y_i ≤ w_i, Σ y ≤ δ − Σ_{i∈S} a_i} / Π_{i∈S} π_i — the shift
//     identity behind Lemma 2.7. Its threshold depends on S, so this side
//     is evaluated per outer set by a depth-first inclusion-exclusion walk
//     over S's widths in ascending order, visiting only the subsets with
//     positive remainder (once a partial width sum reaches the threshold,
//     every extension and every later sibling is pruned).
//
// Outer sets are skipped wholesale when any member has a_i ≥ π_i (it can
// never choose bin 1), when δ − Σ_{i∈S} a_i ≤ 0, when |S| exceeds the
// largest cardinality whose cheapest threshold sum stays below δ, or when
// the bin-0 side already vanishes.
func WinningProbabilityPiOpts(thresholds, pi []float64, capacity float64, workers int, o *obs.Observer) (float64, error) {
	n := len(thresholds)
	if n < 2 {
		return 0, fmt.Errorf("nonoblivious: need at least 2 players, got %d", n)
	}
	if len(pi) > 0 && len(pi) != n {
		return 0, fmt.Errorf("nonoblivious: %d input ranges for %d players", len(pi), n)
	}
	hetero := false
	for _, w := range pi {
		if w != 1 {
			hetero = true
			break
		}
	}
	if !hetero {
		return WinningProbabilityOpts(thresholds, capacity, workers, o)
	}
	for i, w := range pi {
		if !(w > 0) || math.IsInf(w, 1) {
			return 0, fmt.Errorf("nonoblivious: input range π[%d] = %v must be strictly positive and finite", i, w)
		}
	}
	if n > MaxNHetero {
		return 0, problem.PlayerCapError("nonoblivious: heterogeneous evaluation limited to %d players, got %d", MaxNHetero, n)
	}
	if err := validateCapacity(capacity); err != nil {
		return 0, err
	}
	if err := checkThresholds(thresholds); err != nil {
		return 0, err
	}
	if workers <= 0 {
		workers = 1
	}
	lows := make([]float64, n)  // c_i = min(a_i, π_i): conditional bin-0 widths
	highs := make([]float64, n) // w_i = π_i − a_i: residual bin-1 widths
	piProd := 1.0
	var badHigh uint64 // players that can never choose bin 1
	for i := 0; i < n; i++ {
		piProd *= pi[i]
		lows[i] = math.Min(thresholds[i], pi[i])
		if w := pi[i] - thresholds[i]; w > 0 {
			highs[i] = w
		} else {
			badHigh |= 1 << uint(i)
		}
	}
	vol0, stats, err := dist.AllSubsetVolumes(lows, capacity, workers)
	if err != nil {
		return 0, err
	}
	aSums, err := combin.SubsetSums(thresholds)
	if err != nil {
		return 0, err
	}
	wSums, err := combin.SubsetSums(highs)
	if err != nil {
		return 0, err
	}
	wProd, err := combin.SubsetProducts(highs)
	if err != nil {
		return 0, err
	}
	invFact := make([]float64, n+1)
	for m := 0; m <= n; m++ {
		f, err := combin.FactorialFloat(m)
		if err != nil {
			return 0, err
		}
		invFact[m] = 1 / f
	}
	// kmax: the largest bin-1 cardinality whose cheapest threshold sum
	// stays below δ — larger sets force δ − Σ_S a ≤ 0 and vanish.
	sorted := append([]float64(nil), thresholds...)
	sort.Float64s(sorted)
	kmax, prefix := 0, 0.0
	for k := 1; k <= n; k++ {
		prefix += sorted[k-1]
		if prefix >= capacity {
			break
		}
		kmax = k
	}
	// DFS element order: ascending residual width, so the first sibling
	// whose width no longer fits under the remainder prunes the rest.
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if badHigh&(1<<uint(i)) == 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(x, y int) bool { return highs[order[x]] < highs[order[y]] })

	var mu sync.Mutex
	var dfsTerms []*uint64
	full := (uint64(1) << uint(n)) - 1
	total, chunks, err := combin.ChunkedMaskSum(n, workers, func() func(uint64) float64 {
		terms := new(uint64)
		mu.Lock()
		dfsTerms = append(dfsTerms, terms)
		mu.Unlock()
		ws := make([]float64, 0, n)
		return func(s uint64) float64 {
			if s&badHigh != 0 {
				return 0
			}
			m := bits.OnesCount64(s)
			if m > kmax {
				return 0
			}
			v0 := vol0[full&^s]
			if v0 <= 0 {
				return 0
			}
			if m == 0 {
				return v0 // empty bin 1 always fits
			}
			t := capacity - aSums[s]
			if t <= 0 {
				return 0
			}
			if t >= wSums[s] {
				// The whole residual box fits under the threshold: the
				// volume is exactly Π w_i, no inclusion-exclusion needed.
				*terms++
				return v0 * wProd[s]
			}
			ws = ws[:0]
			for _, i := range order {
				if s&(1<<uint(i)) != 0 {
					ws = append(ws, highs[i])
				}
			}
			v1, steps := tailVolumeDFS(ws, t, m, invFact[m])
			*terms += steps
			if v1 <= 0 {
				return 0
			}
			return v0 * v1
		}
	})
	if err != nil {
		return 0, err
	}
	for _, c := range dfsTerms {
		stats.Rebuilt += *c
	}
	stats.Record(o, chunks, workers)
	return clamp01(total / piProd), nil
}

// tailVolumeDFS evaluates the Proposition 2.2 volume
// (1/m!) Σ_{J ⊆ ws} (−1)^{|J|} (t − Σ_J w)_+^m by depth-first subset
// enumeration over the ascending widths ws, visiting only subsets with
// positive remainder: widths are positive and sorted, so once a partial
// sum reaches t the current branch and all later siblings are dead. Plain
// (uncompensated) summation — the ExactErrorBound budget dwarfs the Θ(2^m)
// rounding worst case. It returns the volume and the number of terms
// evaluated.
func tailVolumeDFS(ws []float64, t float64, m int, invFact float64) (float64, uint64) {
	var acc float64
	var steps uint64
	var walk func(start int, sum, sign float64)
	walk = func(start int, sum, sign float64) {
		steps++
		acc += sign * combin.PowInt(t-sum, m)
		for j := start; j < len(ws); j++ {
			next := sum + ws[j]
			if next >= t {
				return
			}
			walk(j+1, next, -sign)
		}
	}
	walk(0, 0, 1)
	return acc * invFact, steps
}
