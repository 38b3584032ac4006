// Package optimize provides the numeric optimization routines used to
// cross-check the paper's symbolic optimality results:
// golden-section scalar maximization (for threshold sweeps) and
// derivative-free vector maximization (coordinate ascent and Nelder-Mead)
// over probability/threshold vectors.
//
// Every optimum the reproduction reports is computed twice — once exactly
// through internal/poly's Sturm machinery and once numerically through this
// package — and the two are required to agree in tests.
package optimize

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// invPhi is 1/φ, the golden-section step ratio.
var invPhi = (math.Sqrt(5) - 1) / 2

// ScalarResult is the outcome of a one-dimensional maximization.
type ScalarResult struct {
	// X is the maximizing argument.
	X float64
	// Value is the function value at X.
	Value float64
	// Evals counts function evaluations performed.
	Evals int
	// Iterations counts bracket-shrinking iterations performed.
	Iterations int
}

// GoldenSectionMax maximizes f on [lo, hi] to within tol using
// golden-section search. f must be unimodal on the interval for the result
// to be the global maximum; on multimodal functions it returns some local
// maximum. It returns an error for invalid intervals, tolerances, or a nil
// function.
//
// A non-nil observer counts function evaluations and iterations
// (opt.golden.evals, opt.golden.iterations), records the final bracket
// width (opt.golden.bracket_width), and emits one opt.golden_section
// checkpoint event per iteration with the live bracket; nil means
// uninstrumented.
func GoldenSectionMax(o *obs.Observer, f func(float64) float64, lo, hi, tol float64) (ScalarResult, error) {
	if f == nil {
		return ScalarResult{}, fmt.Errorf("optimize: nil objective")
	}
	if !(lo < hi) || math.IsNaN(lo) || math.IsNaN(hi) {
		return ScalarResult{}, fmt.Errorf("optimize: invalid interval [%v, %v]", lo, hi)
	}
	if !(tol > 0) {
		return ScalarResult{}, fmt.Errorf("optimize: non-positive tolerance %v", tol)
	}
	sp := o.StartSpan("opt.golden_section")
	defer sp.End()
	evals := 0
	eval := func(x float64) float64 {
		evals++
		return f(x)
	}
	iters := 0
	a, b := lo, hi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := eval(c), eval(d)
	for b-a > tol {
		if fc >= fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = eval(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = eval(d)
		}
		iters++
		if o.Enabled() {
			o.Emit(obs.Event{
				Type: obs.EventCheckpoint,
				Name: "opt.golden_section",
				Attrs: map[string]float64{
					"iter":  float64(iters),
					"lo":    a,
					"hi":    b,
					"width": b - a,
					"best":  math.Max(fc, fd),
				},
			})
		}
	}
	x := (a + b) / 2
	v := eval(x)
	// Keep the best of the bracketing probes in case of flat regions.
	if fc > v {
		x, v = c, fc
	}
	if fd > v {
		x, v = d, fd
	}
	o.Counter("opt.golden.evals").Add(int64(evals))
	o.Counter("opt.golden.iterations").Add(int64(iters))
	o.Gauge("opt.golden.bracket_width").Set(b - a)
	return ScalarResult{X: x, Value: v, Evals: evals, Iterations: iters}, nil
}

// GridThenGoldenMax scans [lo, hi] on a grid of the given resolution to
// bracket the global maximum of a possibly multimodal function, then
// refines the best bracket with golden-section search. It returns an error
// for invalid arguments.
//
// A non-nil observer counts the grid scan under opt.grid.evals and wraps
// it, together with the golden-section refinement, in an
// opt.grid_then_golden span; nil means uninstrumented.
func GridThenGoldenMax(o *obs.Observer, f func(float64) float64, lo, hi float64, gridPoints int, tol float64) (ScalarResult, error) {
	if f == nil {
		return ScalarResult{}, fmt.Errorf("optimize: nil objective")
	}
	if !(lo < hi) {
		return ScalarResult{}, fmt.Errorf("optimize: invalid interval [%v, %v]", lo, hi)
	}
	if gridPoints < 3 {
		return ScalarResult{}, fmt.Errorf("optimize: grid needs at least 3 points, got %d", gridPoints)
	}
	if !(tol > 0) {
		return ScalarResult{}, fmt.Errorf("optimize: non-positive tolerance %v", tol)
	}
	sp := o.StartSpan("opt.grid_then_golden")
	defer sp.End()
	evals := 0
	bestI, bestV := 0, math.Inf(-1)
	h := (hi - lo) / float64(gridPoints-1)
	for i := 0; i < gridPoints; i++ {
		v := f(lo + float64(i)*h)
		evals++
		if v > bestV {
			bestI, bestV = i, v
		}
	}
	o.Counter("opt.grid.evals").Add(int64(evals))
	bLo := lo + float64(max(bestI-1, 0))*h
	bHi := lo + float64(min(bestI+1, gridPoints-1))*h
	res, err := GoldenSectionMax(o, f, bLo, bHi, tol)
	if err != nil {
		return ScalarResult{}, err
	}
	res.Evals += evals
	if bestV > res.Value {
		res.X = lo + float64(bestI)*h
		res.Value = bestV
	}
	return res, nil
}
