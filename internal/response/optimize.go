package response

import (
	"fmt"
	"math"

	"repro/internal/optimize"
)

// OptimizeResult is the outcome of a rule-family optimization.
type OptimizeResult struct {
	// Set is the best bin-0 region found.
	Set IntervalSet
	// WinProbability is its winning probability under the evaluator's
	// grid.
	WinProbability float64
}

// OptimizeThreshold maximizes over the paper's single-threshold family
// S = [0, β] using golden-section search on the evaluator's grid oracle.
// It exists mainly as a consistency anchor: its result must match the
// exact §5.2 optimum to within grid accuracy.
func (e *Evaluator) OptimizeThreshold() (OptimizeResult, error) {
	obj := func(beta float64) float64 {
		s, err := Threshold(beta)
		if err != nil {
			return math.Inf(-1)
		}
		p, err := e.WinProbability(s)
		if err != nil {
			return math.Inf(-1)
		}
		return p
	}
	res, err := optimize.GridThenGoldenMax(nil, obj, 0, 1, 101, 1e-6)
	if err != nil {
		return OptimizeResult{}, err
	}
	set, err := Threshold(res.X)
	if err != nil {
		return OptimizeResult{}, err
	}
	return OptimizeResult{Set: set, WinProbability: res.Value}, nil
}

// OptimizeTwoInterval maximizes over bin-0 regions of the form
// [0, a] ∪ [b, c] with 0 ≤ a ≤ b ≤ c ≤ 1 — the smallest family that
// strictly contains the paper's single thresholds (a = β, b = c collapses
// the second interval). A Nelder-Mead search from several starts probes
// whether leaving the single-threshold family helps; the single-threshold
// optimum is always a candidate, so the result never falls below it.
func (e *Evaluator) OptimizeTwoInterval() (OptimizeResult, error) {
	setFrom := func(v []float64) (IntervalSet, error) {
		a := clamp01(v[0])
		b := clamp01(v[1])
		c := clamp01(v[2])
		if b > c {
			b, c = c, b
		}
		if a > b {
			a = b
		}
		return NewIntervalSet([]Interval{{0, a}, {b, c}})
	}
	obj := func(v []float64) float64 {
		s, err := setFrom(v)
		if err != nil {
			return math.Inf(-1)
		}
		p, err := e.WinProbability(s)
		if err != nil {
			return math.Inf(-1)
		}
		return p
	}
	// Always include the best single threshold as a baseline candidate.
	base, err := e.OptimizeThreshold()
	if err != nil {
		return OptimizeResult{}, err
	}
	baseBeta := 0.0
	if ivs := base.Set.Intervals(); len(ivs) > 0 {
		baseBeta = ivs[0].Hi
	}
	best := OptimizeResult{Set: base.Set, WinProbability: base.WinProbability}
	starts := [][]float64{
		{baseBeta, baseBeta, baseBeta}, // degenerate: the threshold itself
		{baseBeta * 0.8, 0.9, 1.0},     // low cut plus a top sliver
		{0.3, 0.6, 0.8},                // middle band
		{0.1, 0.45, 0.65},              // two low bands
	}
	lo := []float64{0, 0, 0}
	hi := []float64{1, 1, 1}
	for _, start := range starts {
		res, err := optimize.NelderMeadMax(nil, obj, start, lo, hi, 0.1, 3000, 1e-10)
		if err != nil {
			return OptimizeResult{}, fmt.Errorf("response: two-interval search from %v: %w", start, err)
		}
		if res.Value > best.WinProbability {
			s, err := setFrom(res.X)
			if err != nil {
				continue
			}
			best = OptimizeResult{Set: s, WinProbability: res.Value}
		}
	}
	return best, nil
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
