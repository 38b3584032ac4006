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
// represents S as a finite union of intervals and evaluates the
// convolutions numerically on a uniform grid, giving a winning-probability
// oracle for rules far outside the paper's single-threshold family — and a
// way to test whether that family is actually optimal (see
// OptimizeTwoInterval and EXPERIMENTS.md).
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
		if n := len(merged); n > 0 && iv.Lo <= merged[n-1].Hi {
			if iv.Hi > merged[n-1].Hi {
				merged[n-1].Hi = iv.Hi
			}
			continue
		}
		merged = append(merged, iv)
	}
	return IntervalSet{intervals: merged}, nil
}

// Threshold returns the single-threshold set [0, β] — the paper's §5
// family.
func Threshold(beta float64) (IntervalSet, error) {
	if math.IsNaN(beta) || beta < 0 || beta > 1 {
		return IntervalSet{}, fmt.Errorf("response: threshold %v outside [0, 1]", beta)
	}
	if beta == 0 {
		return IntervalSet{}, nil
	}
	return NewIntervalSet([]Interval{{0, beta}})
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
	if math.IsNaN(lo) || math.IsNaN(hi) || lo < 0 || hi > 1 || lo > hi {
		return IntervalSet{}, fmt.Errorf("response: invalid window [%v, %v]", lo, hi)
	}
	var out []Interval
	for _, iv := range s.intervals {
		l := math.Max(iv.Lo, lo)
		h := math.Min(iv.Hi, hi)
		if l <= h {
			out = append(out, Interval{l, h})
		}
	}
	return NewIntervalSet(out)
}

// Complement returns the closure of [0,1] \ S.
func (s IntervalSet) Complement() IntervalSet {
	var out []Interval
	cursor := 0.0
	for _, iv := range s.intervals {
		if iv.Lo > cursor {
			out = append(out, Interval{cursor, iv.Lo})
		}
		cursor = iv.Hi
	}
	if cursor < 1 {
		out = append(out, Interval{cursor, 1})
	}
	set, err := NewIntervalSet(out)
	if err != nil {
		// Unreachable: complement of a valid set is valid.
		panic(err)
	}
	return set
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

// Evaluator computes winning probabilities of symmetric interval-set rules
// by grid convolution. Construct once per (n, capacity, grid) and reuse
// across candidate sets — optimization loops evaluate thousands of sets.
type Evaluator struct {
	n        int
	capacity float64
	grid     int     // samples per unit interval
	h        float64 // grid spacing = 1/grid
}

// NewEvaluator validates the parameters. grid controls accuracy: the
// convolution error is O(1/grid²); 512 gives ≈ 1e-5 on the paper's
// instances.
func NewEvaluator(n int, capacity float64, grid int) (*Evaluator, error) {
	if n < 2 {
		return nil, fmt.Errorf("response: need at least 2 players, got %d", n)
	}
	if n > 12 {
		return nil, problem.PlayerCapError("response: evaluator limited to 12 players, got %d", n)
	}
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return nil, fmt.Errorf("response: capacity %v must be strictly positive and finite", capacity)
	}
	if grid < 16 || grid > 1<<16 {
		return nil, fmt.Errorf("response: grid %d outside [16, 65536]", grid)
	}
	return &Evaluator{n: n, capacity: capacity, grid: grid, h: 1.0 / float64(grid)}, nil
}

// density samples the indicator of the set on the evaluator's grid using
// midpoint sampling with partial-cell weights (exact for interval
// endpoints aligned or not).
func (e *Evaluator) density(s IntervalSet) []float64 {
	d := make([]float64, e.grid)
	for _, iv := range s.intervals {
		// Weight each cell by the overlap fraction.
		loCell := int(iv.Lo * float64(e.grid))
		hiCell := int(iv.Hi * float64(e.grid))
		if hiCell >= e.grid {
			hiCell = e.grid - 1
		}
		for c := loCell; c <= hiCell; c++ {
			cellLo := float64(c) * e.h
			cellHi := cellLo + e.h
			overlap := math.Min(iv.Hi, cellHi) - math.Max(iv.Lo, cellLo)
			if overlap > 0 {
				d[c] += overlap / e.h
			}
		}
	}
	for i, v := range d {
		if v > 1 {
			d[i] = 1
		}
	}
	return d
}

// weight is the fraction of cell i of a generation-m density (halfGen =
// m/2) that lies below the capacity, before clamping to 1. Sample i of an
// m-fold convolution sits at position (i + m/2)·h and represents mass
// d[i]·h spread over a width-h cell centred there. Cell positions are
// non-negative and increase with i, so the weight never increases with i.
func (e *Evaluator) weight(i int, halfGen float64) float64 {
	center := (float64(i) + halfGen) * e.h
	cellLo := center - e.h/2
	return (e.capacity - cellLo) / e.h
}

// cutoff returns the number of leading cells of a generation-m density
// that carry weight below the capacity: weight(i) > 0 exactly for
// i < cutoff(m), capped at the m-fold convolution's length m·(grid-1)+1.
// It is decided by the same float expression massBelow weights with, so
// the two cannot disagree about the last cell.
func (e *Evaluator) cutoff(m int) int {
	limit := m*(e.grid-1) + 1
	halfGen := float64(m) / 2
	// weight(i) > 0 ⇔ i < δ·grid - (m-1)/2 in exact arithmetic; start
	// there and settle on the float predicate.
	k := limit
	if est := e.capacity*float64(e.grid) - (halfGen - 0.5); est < float64(limit) {
		k = max(0, int(est))
	}
	for k > 0 && e.weight(k-1, halfGen) <= 0 {
		k--
	}
	for k < limit && e.weight(k, halfGen) > 0 {
		k++
	}
	return k
}

// massBelow returns the total mass of the (defective) generation-m
// density below the capacity; the boundary cell is weighted by its
// overlap with (-∞, δ]. d holds at most cutoff(m) cells, every one of
// them with positive weight, so d may be a prefix of the convolution.
func (e *Evaluator) massBelow(d []float64, m int) float64 {
	var acc combin.Accumulator
	halfGen := float64(m) / 2
	for i, v := range d {
		if v == 0 {
			continue
		}
		acc.Add(v * min(e.weight(i, halfGen), 1))
	}
	return acc.Sum() * e.h
}

// WinProbability evaluates the symmetric rule with bin-0 region s:
//
//	P = Σ_k C(n,k) N₀(n-k) N₁(k),
//
// with N₀(m) = P(all of x_1..x_m in S, Σ ≤ δ) computed by m-fold grid
// convolution of the indicator density of S, and N₁ likewise on the
// complement.
func (e *Evaluator) WinProbability(s IntervalSet) (float64, error) {
	f0 := e.density(s)
	f1 := e.density(s.Complement())
	n0 := e.partialMasses(f0)
	n1 := e.partialMasses(f1)
	row, err := combin.PascalRow(e.n)
	if err != nil {
		return 0, err
	}
	var acc combin.Accumulator
	for k := 0; k <= e.n; k++ {
		acc.Add(row[k] * n0[e.n-k] * n1[k])
	}
	p := acc.Sum()
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p, nil
}

// partialMasses returns N(m) for m = 0..n where N(m) is the mass of the
// m-fold self-convolution of d below the capacity; N(0) = 1.
//
// Generation m is computed only over its first cutoff(m) cells, the ones
// massBelow weights. Cell positions are non-negative, so output cell k of
// cur*d depends on cur[0..k] alone and the prefix is exact; and a cell's
// weight never grows with the generation, so cutoff(m+1) ≤ cutoff(m)
// whenever generation m is truncated at all. The inner loop walks only
// the nonzero runs of d: a skipped term is an exact zero, and every
// output cell still adds its products in ascending order of cur's index
// before the final ×h, so the result is bit-identical to the full
// convolution.
func (e *Evaluator) partialMasses(d []float64) []float64 {
	out := make([]float64, e.n+1)
	out[0] = 1
	runs := nonzeroRuns(d)
	cur := d[:min(len(d), e.cutoff(1))]
	for m := 1; m <= e.n; m++ {
		out[m] = e.massBelow(cur, m)
		if m < e.n {
			cur = e.convolvePrefix(cur, d, runs, e.cutoff(m+1))
		}
	}
	return out
}

// run is a maximal half-open range [lo, hi) of nonzero density cells.
type run struct{ lo, hi int }

// nonzeroRuns returns the maximal runs of nonzero cells of d, ascending.
func nonzeroRuns(d []float64) []run {
	var runs []run
	for i := 0; i < len(d); {
		if d[i] == 0 {
			i++
			continue
		}
		lo := i
		for i < len(d) && d[i] != 0 {
			i++
		}
		runs = append(runs, run{lo, i})
	}
	return runs
}

// convolvePrefix returns the first length cells of h·(cur*d), visiting
// only the nonzero runs of d. length must not exceed len(cur)+len(d)-1.
func (e *Evaluator) convolvePrefix(cur, d []float64, runs []run, length int) []float64 {
	out := make([]float64, length)
	for i, fv := range cur[:min(len(cur), length)] {
		if fv == 0 {
			continue
		}
		lim := length - i
		for _, r := range runs {
			if r.lo >= lim {
				break
			}
			src := d[r.lo:min(r.hi, lim)]
			dst := out[i+r.lo:]
			dst = dst[:len(src)]
			for j, gv := range src {
				dst[j] += fv * gv
			}
		}
	}
	for k := range out {
		out[k] *= e.h
	}
	return out
}
