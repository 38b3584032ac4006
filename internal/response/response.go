// Package response extends the paper's analysis from single-threshold
// rules to arbitrary deterministic decision rules, the full generality the
// model of Section 3 allows ("any computable function of the inputs it
// sees").
//
// A symmetric deterministic no-communication algorithm is determined by
// its bin-0 region S ⊆ [0,1]: a player choosing by rule A places its input
// x in bin 0 exactly when x ∈ S. For measurable S the winning probability
// factors exactly like Theorem 5.1,
//
//	P = Σ_k C(n,k) N₀(n-k) N₁(k),
//
// where N₀(m) is the defective m-fold convolution mass
// P(x_1..x_m ∈ S, Σ x_i ≤ δ) and N₁ its complement analogue. This package
// represents S as a finite union of intervals. Conditioned on the interval
// each input falls into, the inputs are uniform on their intervals, so
// every N(m) is a finite sum of Lemma 2.4 box volumes — evaluated in
// float64 by Evaluator and in exact rationals by ExactWinProbability. That
// gives a winning-probability oracle for rules far outside the paper's
// single-threshold family — and a way to test whether that family is
// actually optimal (see OptimizeTwoInterval and EXPERIMENTS.md).
//
// Since the winning probability is linear in each player's response
// function with the others fixed, some deterministic rule is always
// optimal among randomized ones; this package covers the deterministic
// rules with finitely many switching points.
package response

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/combin"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/problem"
)

// Interval is a closed subinterval [Lo, Hi] of [0, 1].
type Interval struct {
	Lo, Hi float64
}

// IntervalSet is a finite union of disjoint, sorted intervals within
// [0, 1] — the bin-0 region of a symmetric deterministic rule.
type IntervalSet struct {
	intervals []Interval
}

// NewIntervalSet validates, sorts and merges the given intervals.
// Intervals must lie within [0, 1]; overlapping or touching intervals are
// merged. An empty set (no intervals) is valid: the rule sends everything
// to bin 1.
func NewIntervalSet(intervals []Interval) (IntervalSet, error) {
	cp := make([]Interval, 0, len(intervals))
	for i, iv := range intervals {
		if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) || iv.Lo < 0 || iv.Hi > 1 || iv.Lo > iv.Hi {
			return IntervalSet{}, fmt.Errorf("response: interval %d = [%v, %v] invalid within [0, 1]", i, iv.Lo, iv.Hi)
		}
		cp = append(cp, iv)
	}
	sort.Slice(cp, func(i, j int) bool { return cp[i].Lo < cp[j].Lo })
	merged := make([]Interval, 0, len(cp))
	for _, iv := range cp {
		merged = appendMerged(merged, 0, iv)
	}
	return IntervalSet{intervals: merged}, nil
}

// appendMerged appends iv, which starts no earlier than dst[len(dst)-1],
// to the set held in dst[from:], merging it into that set's last interval
// when the two overlap or touch.
func appendMerged(dst []Interval, from int, iv Interval) []Interval {
	if n := len(dst); n > from && iv.Lo <= dst[n-1].Hi {
		if iv.Hi > dst[n-1].Hi {
			dst[n-1].Hi = iv.Hi
		}
		return dst
	}
	return append(dst, iv)
}

// Threshold returns the single-threshold set [0, β] — the paper's §5
// family.
func Threshold(beta float64) (IntervalSet, error) {
	var sc Scratch
	return sc.Threshold(beta)
}

// Intervals returns a copy of the merged interval list.
func (s IntervalSet) Intervals() []Interval {
	out := make([]Interval, len(s.intervals))
	copy(out, s.intervals)
	return out
}

// Measure returns the Lebesgue measure |S|.
func (s IntervalSet) Measure() float64 {
	var m float64
	for _, iv := range s.intervals {
		m += iv.Hi - iv.Lo
	}
	return m
}

// Contains reports whether x ∈ S.
func (s IntervalSet) Contains(x float64) bool {
	for _, iv := range s.intervals {
		if x < iv.Lo {
			return false
		}
		if x <= iv.Hi {
			return true
		}
	}
	return false
}

// Intersect returns S ∩ [lo, hi]. It returns an error for an invalid
// window.
func (s IntervalSet) Intersect(lo, hi float64) (IntervalSet, error) {
	var sc Scratch
	return sc.Intersect(s, lo, hi)
}

// Complement returns the closure of [0,1] \ S.
func (s IntervalSet) Complement() IntervalSet {
	var sc Scratch
	return sc.Complement(s)
}

// Scratch is reusable working memory for the interval sets of one
// evaluation and for WinProbabilityVectorPairs. Sets built by its
// Threshold, Intersect and Complement live in one arena that Reset
// rewinds, so a loop that builds and evaluates a region vector per probe
// (a protocol's parameter search) allocates nothing once the buffers have
// grown. The package functions of the same names run these methods on a
// fresh Scratch. A Scratch is not safe for concurrent use.
type Scratch struct {
	arena     []Interval
	zero, one regionMasses
}

// Reset rewinds the arena: sets built before the call must not be used
// after it.
func (sc *Scratch) Reset() { sc.arena = sc.arena[:0] }

// set returns the set built in the arena since index from.
func (sc *Scratch) set(from int) IntervalSet {
	n := len(sc.arena)
	return IntervalSet{intervals: sc.arena[from:n:n]}
}

// Threshold builds the single-threshold set [0, β] in the arena.
func (sc *Scratch) Threshold(beta float64) (IntervalSet, error) {
	if math.IsNaN(beta) || beta < 0 || beta > 1 {
		return IntervalSet{}, fmt.Errorf("response: threshold %v outside [0, 1]", beta)
	}
	if beta == 0 {
		return IntervalSet{}, nil
	}
	from := len(sc.arena)
	sc.arena = append(sc.arena, Interval{0, beta})
	return sc.set(from), nil
}

// Intersect builds S ∩ [lo, hi] in the arena. It returns an error for an
// invalid window.
func (sc *Scratch) Intersect(s IntervalSet, lo, hi float64) (IntervalSet, error) {
	if math.IsNaN(lo) || math.IsNaN(hi) || lo < 0 || hi > 1 || lo > hi {
		return IntervalSet{}, fmt.Errorf("response: invalid window [%v, %v]", lo, hi)
	}
	from := len(sc.arena)
	for _, iv := range s.intervals {
		l := math.Max(iv.Lo, lo)
		h := math.Min(iv.Hi, hi)
		if l <= h {
			sc.arena = appendMerged(sc.arena, from, Interval{l, h})
		}
	}
	return sc.set(from), nil
}

// Complement builds the closure of [0,1] \ S in the arena.
func (sc *Scratch) Complement(s IntervalSet) IntervalSet {
	from := len(sc.arena)
	cursor := 0.0
	for _, iv := range s.intervals {
		if iv.Lo > cursor {
			sc.arena = appendMerged(sc.arena, from, Interval{cursor, iv.Lo})
		}
		cursor = iv.Hi
	}
	if cursor < 1 {
		sc.arena = appendMerged(sc.arena, from, Interval{cursor, 1})
	}
	return sc.set(from)
}

// Rule adapts the set to a model.LocalRule for the simulator. The
// returned rule implements model.BatchRule, so simulations of interval
// systems take the Monte-Carlo engine's allocation-free batch path.
func (s IntervalSet) Rule(name string) (model.IntervalUnionRule, error) {
	los := make([]float64, len(s.intervals))
	his := make([]float64, len(s.intervals))
	for j, iv := range s.intervals {
		los[j], his[j] = iv.Lo, iv.Hi
	}
	return model.NewIntervalUnionRule(name, los, his)
}

// String renders the set as a union of intervals.
func (s IntervalSet) String() string {
	if len(s.intervals) == 0 {
		return "∅"
	}
	out := ""
	for i, iv := range s.intervals {
		if i > 0 {
			out += " ∪ "
		}
		out += fmt.Sprintf("[%.4f, %.4f]", iv.Lo, iv.Hi)
	}
	return out
}

// Evaluator computes winning probabilities of symmetric interval-set and
// step rules through Theorem 5.1's factorization, with every N(m) a sum of
// Lemma 2.4 box volumes in float64 — the float twin of
// ExactWinProbability. Construct once per (n, capacity) and reuse across
// candidate sets — optimization loops evaluate thousands of sets.
type Evaluator struct {
	n        int
	capacity float64
	row      []float64 // C(n, k) for k = 0..n
}

// NewEvaluator validates the parameters. The exact domain is n ≤ 12
// players; larger n is refused with a problem.PlayerCapError.
func NewEvaluator(n int, capacity float64) (*Evaluator, error) {
	if n < 2 {
		return nil, fmt.Errorf("response: need at least 2 players, got %d", n)
	}
	if n > 12 {
		return nil, problem.PlayerCapError("response: evaluator limited to 12 players, got %d", n)
	}
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return nil, fmt.Errorf("response: capacity %v must be strictly positive and finite", capacity)
	}
	row, err := combin.PascalRow(n)
	if err != nil {
		return nil, err
	}
	return &Evaluator{n: n, capacity: capacity, row: row}, nil
}

// WinProbability evaluates the symmetric rule with bin-0 region s:
//
//	P = Σ_k C(n,k) N₀(n-k) N₁(k),
//
// with N₀(m) = P(all of x_1..x_m in S, Σ ≤ δ) and N₁ likewise on the
// complement. Conditioned on which interval each input falls into, the
// inputs are independent uniforms on those intervals, so N(m) is a sum
// over the compositions k of m across the intervals:
//
//	N(m) = Σ_k multinomial(m; k) · vol(widths(k), δ - Σ_j k_j·lo_j),
//
// where vol is the Lemma 2.4 box volume (see boxVolume) with width
// w_j = hi_j - lo_j repeated k_j times.
func (e *Evaluator) WinProbability(s IntervalSet) (float64, error) {
	return e.combine(e.intervalMasses(s), e.intervalMasses(s.Complement())), nil
}

// combine is Theorem 5.1's Σ_k C(n,k) N₀(n-k) N₁(k), clamped to [0, 1].
func (e *Evaluator) combine(n0, n1 []float64) float64 {
	var acc combin.Accumulator
	for k := 0; k <= e.n; k++ {
		acc.Add(e.row[k] * n0[e.n-k] * n1[k])
	}
	return dist.Clamp01(acc.Sum())
}

// intervalMasses returns N(m) for m = 0..n over the region s. Zero-width
// intervals carry no mass and are skipped.
func (e *Evaluator) intervalMasses(s IntervalSet) []float64 {
	var lo, w []float64
	for _, iv := range s.intervals {
		if iv.Hi > iv.Lo {
			lo = append(lo, iv.Lo)
			w = append(w, iv.Hi-iv.Lo)
		}
	}
	out := make([]float64, e.n+1)
	out[0] = 1
	if len(w) == 0 {
		return out
	}
	for m := 1; m <= e.n; m++ {
		var acc combin.Accumulator
		// m ≤ 12 parts cannot overflow the multinomial or fail to enumerate.
		_ = combin.ForEachComposition(m, len(w), func(parts []int) bool {
			t := e.capacity
			for j, k := range parts {
				t -= float64(k) * lo[j]
			}
			if t > 0 {
				mult, _ := combin.Multinomial(parts...)
				acc.Add(float64(mult) * boxVolume(w, parts, t))
			}
			return true
		})
		out[m] = acc.Sum()
	}
	return out
}

// boxVolume returns the volume of {y ∈ Π_j [0, w_j]^k_j : Σ y ≤ t}, the
// Lemma 2.4 CDF times the box volume Π w_j^k_j:
//
//	(1/m!) Σ_{i ≤ k} Π_j C(k_j, i_j) · (-1)^Σi · (t - Σ_j i_j·w_j)₊^m,
//
// which is Lemma 2.4's subset sum with the subsets of equal widths grouped
// (m = Σ k_j; every w_j > 0). Past the midpoint of the support it uses the
// box's point symmetry y ↦ w - y, so the alternating terms stay small; the
// result is clamped to [0, Π w_j^k_j], which also bounds the absolute
// error on thin boxes.
func boxVolume(w []float64, k []int, t float64) float64 {
	m := 0
	total, vol := 0.0, 1.0
	for j, kj := range k {
		m += kj
		total += float64(kj) * w[j]
		vol *= combin.PowInt(w[j], kj)
	}
	if t <= 0 {
		return 0
	}
	if t >= total {
		return vol
	}
	flip := t > total/2
	if flip {
		t = total - t
	}
	var acc combin.Accumulator
	var walk func(j int, sum, coef float64)
	walk = func(j int, sum, coef float64) {
		if j == len(k) {
			acc.Add(coef * combin.PowInt(t-sum, m))
			return
		}
		for i := 0; i <= k[j] && sum < t; i++ {
			walk(j+1, sum, coef)
			sum += w[j]
			coef = -coef * float64(k[j]-i) / float64(i+1)
		}
	}
	walk(0, 0, 1)
	fact := 1.0
	for i := 2; i <= m; i++ {
		fact *= float64(i)
	}
	v := min(max(acc.Sum()/fact, 0), vol)
	if flip {
		return vol - v
	}
	return v
}
