package nonoblivious

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/combin"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/problem"
)

// MaxNHetero bounds the player count for heterogeneous-input evaluation.
// When the bin-1-capable players share one threshold, the bin-1 side is a
// per-exponent sum-over-subsets table (O(n²·2^n)). With distinct
// thresholds the inclusion-exclusion threshold δ − Σ_{i∈S} a_i varies
// with the outer set S in a way no exponent index absorbs, which defeats
// that collapse; the evaluation falls back to a pruned depth-first walk
// per outer set (worst case Θ(3^n), heavily cut by the positivity
// guards). That worst case keeps the heterogeneous cap at the old general
// limit while the homogeneous MaxNGeneral moved to 20.
const MaxNHetero = 15

// WinningProbabilityPi generalizes Theorem 5.1 to heterogeneous inputs
// x_i ~ U[0, π_i]: the probability that neither bin overflows capacity δ
// when player i sends its input to bin 0 exactly when x_i ≤ thresholds[i].
// A nil (or empty, or all-ones) π delegates to the homogeneous
// WinningProbability; any other π must have one entry per player.
// Thresholds stay in [0, 1], matching the rule class the model layer
// admits; a threshold above π_i simply sends player i to bin 0 always. A
// non-nil observer receives the exact.* work counters; nil disables
// instrumentation.
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
//     identity behind Lemma 2.7. Its threshold depends on S. When every
//     player that can choose bin 1 has the same threshold β, it depends
//     on S only through |S|, and sharedBin1Table builds all 2^n volumes
//     with one rebuilt-base zeta pass per cardinality (dist.RadixLadder,
//     O(n²·2^n)). Otherwise each outer set runs a depth-first
//     inclusion-exclusion walk over its widths in ascending order,
//     visiting only the subsets with positive remainder (once a partial
//     width sum reaches the threshold, every extension and every later
//     sibling is pruned).
//
// Outer sets are skipped wholesale when any member has a_i ≥ π_i (it can
// never choose bin 1), when δ − Σ_{i∈S} a_i ≤ 0, when |S| exceeds the
// largest cardinality whose cheapest threshold sum stays below δ, or when
// the bin-0 side already vanishes; a set whose whole residual box fits
// under its threshold takes the exact volume Π_{i∈S} w_i on both paths.
func WinningProbabilityPi(thresholds, pi []float64, capacity float64, o *obs.Observer) (float64, error) {
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
		return WinningProbability(thresholds, capacity, o)
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
	// One slab is the bin-0 ladder's scratch. Once that table is built it
	// holds the residual widths' subset sums and products and either the
	// bin-1 ladder's base or the threshold sums of the per-set walk.
	size := 1 << uint(n)
	slab := make([]float64, 3*size)
	vol0, stats, err := dist.AllSubsetVolumes(nil, lows, capacity, slab)
	if err != nil {
		return 0, err
	}
	wSums, err := combin.SubsetSums(slab[:size:size], highs)
	if err != nil {
		return 0, err
	}
	wProd, err := combin.SubsetProducts(slab[size:2*size:2*size], highs)
	if err != nil {
		return 0, err
	}
	rest := slab[2*size:]
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
	// The shared-threshold table holds every bin-1 volume; otherwise the
	// walk needs each set's threshold sum.
	var vol1, aSums []float64
	if beta, ok := sharedThreshold(thresholds, badHigh); ok {
		mmax := min(kmax, n-bits.OnesCount64(badHigh))
		vol1 = make([]float64, size)
		passes, err := sharedBin1Table(vol1, wSums, wProd, rest, capacity, beta, mmax, n)
		if err != nil {
			return 0, err
		}
		stats.Subsets += uint64(size)
		stats.Incremental += uint64(passes) * uint64(n) * uint64(size) / 2
		stats.Rebuilt += uint64(passes) * uint64(size)
	} else if aSums, err = combin.SubsetSums(rest, thresholds); err != nil {
		return 0, err
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

	full := (uint64(1) << uint(n)) - 1
	ws := make([]float64, 0, n)
	total, err := combin.ChunkedMaskSum(n, func(s uint64) float64 {
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
		if vol1 != nil {
			return v0 * vol1[s]
		}
		t := capacity - aSums[s]
		if t <= 0 {
			return 0
		}
		if t >= wSums[s] {
			// The whole residual box fits under the threshold: the
			// volume is exactly Π w_i, no inclusion-exclusion needed.
			stats.Rebuilt++
			return v0 * wProd[s]
		}
		ws = ws[:0]
		for _, i := range order {
			if s&(1<<uint(i)) != 0 {
				ws = append(ws, highs[i])
			}
		}
		v1, steps := tailVolumeDFS(ws, t, m, invFact[m])
		stats.Rebuilt += steps
		if v1 <= 0 {
			return 0
		}
		return v0 * v1
	})
	if err != nil {
		return 0, err
	}
	stats.Record(o)
	return clamp01(total / piProd), nil
}

// sharedThreshold reports whether every player outside bad (the players
// that can never choose bin 1) has the same threshold, and returns it.
// Vacuously true when every player is in bad.
func sharedThreshold(thresholds []float64, bad uint64) (float64, bool) {
	beta, seen := 0.0, false
	for i, a := range thresholds {
		if bad&(1<<uint(i)) != 0 {
			continue
		}
		if seen && a != beta {
			return 0, false
		}
		beta, seen = a, true
	}
	return beta, true
}

// sharedBin1Table writes to vol1[S] the bin-1 volume
// Vol{0 ≤ y_i ≤ w_i, Σ y ≤ δ − Σ_{i∈S} a_i} of every set S with
// 1 ≤ |S| ≤ mmax, for threshold vectors whose bin-1-capable players share
// one threshold β, and returns the number of ladder passes it ran. Then
// the radix δ − β·|S| − σ_J w depends on S only through m = |S|, so one
// dist.RadixLadder pass per exponent replaces the per-set walk:
// O(mmax·n·2^n) in all. t_m is δ minus m β's summed in order — the bits
// of combin.SubsetSums of the thresholds on every such set. A set whose
// whole residual box fits under t_m gets exactly Π w_i, and the rest are
// clamped below at 0. Exponents in which every m-set fits take Π w_i
// whatever the pass gives, so the ladder starts at the first exponent with
// a set that does not fit. A player that can never choose bin 1 has width
// 0, so the base terms of J and J ∪ {i} cancel exactly and every set
// containing it gets volume 0. wSums and wProd are the subset sums and
// products of the widths, and base is 2^n-entry scratch. Entries of vol1
// for other cardinalities are left as they were.
func sharedBin1Table(vol1, wSums, wProd, base []float64, capacity, beta float64, mmax, n int) (int, error) {
	t := make([]float64, mmax+1)
	aSum := 0.0
	for m := 1; m <= mmax; m++ {
		aSum += beta
		t[m] = capacity - aSum
	}
	m0 := mmax + 1
	for s, w := range wSums {
		if m := bits.OnesCount64(uint64(s)); m < m0 && w > t[m] {
			m0 = m
		}
	}
	err := dist.RadixLadder(wSums, t, base[:len(wSums)], n, m0, func(s uint64, v float64) {
		if t[bits.OnesCount64(s)] >= wSums[s] {
			v = wProd[s]
		} else if v < 0 {
			v = 0
		}
		vol1[s] = v
	})
	return mmax + 1 - m0, err
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
