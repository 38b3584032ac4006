// Package optimize provides the numeric optimization and root-finding
// routines used to cross-check the paper's symbolic optimality results:
// golden-section and Brent scalar maximization (for threshold sweeps),
// bisection and Brent root finding (for optimality conditions), and
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

// Bisect finds a root of f in [lo, hi] by bisection. f(lo) and f(hi) must
// have opposite (or zero) signs. The returned x satisfies an interval width
// of at most tol. It returns an error on invalid input or same-sign
// endpoints.
func Bisect(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	if f == nil {
		return 0, fmt.Errorf("optimize: nil function")
	}
	if !(lo < hi) {
		return 0, fmt.Errorf("optimize: invalid interval [%v, %v]", lo, hi)
	}
	if !(tol > 0) {
		return 0, fmt.Errorf("optimize: non-positive tolerance %v", tol)
	}
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, fmt.Errorf("optimize: f has the same sign at %v and %v", lo, hi)
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		fm := f(mid)
		if fm == 0 {
			return mid, nil
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// BrentRoot finds a root of f in [lo, hi] with Brent's method (inverse
// quadratic interpolation guarded by bisection). f(lo) and f(hi) must
// bracket a root. It returns an error on invalid input, same-sign
// endpoints, or failure to converge in 200 iterations.
//
// A non-nil observer counts function evaluations and iterations
// (opt.brent.evals, opt.brent.iterations), records the final bracket width
// (opt.brent.bracket_width), and emits one opt.brent_root checkpoint event
// per iteration; nil means uninstrumented.
func BrentRoot(o *obs.Observer, f func(float64) float64, lo, hi, tol float64) (float64, error) {
	if f == nil {
		return 0, fmt.Errorf("optimize: nil function")
	}
	if !(lo < hi) {
		return 0, fmt.Errorf("optimize: invalid interval [%v, %v]", lo, hi)
	}
	if !(tol > 0) {
		return 0, fmt.Errorf("optimize: non-positive tolerance %v", tol)
	}
	sp := o.StartSpan("opt.brent_root")
	defer sp.End()
	evals := 0
	iters := 0
	finish := func(root float64, err error) (float64, error) {
		o.Counter("opt.brent.evals").Add(int64(evals))
		o.Counter("opt.brent.iterations").Add(int64(iters))
		return root, err
	}
	eval := func(x float64) float64 {
		evals++
		return f(x)
	}
	a, b := lo, hi
	fa, fb := eval(a), eval(b)
	if fa == 0 {
		return finish(a, nil)
	}
	if fb == 0 {
		return finish(b, nil)
	}
	if (fa > 0) == (fb > 0) {
		return finish(0, fmt.Errorf("optimize: f has the same sign at %v and %v", lo, hi))
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < 200; i++ {
		iters++
		if o.Enabled() {
			o.Emit(obs.Event{
				Type: obs.EventCheckpoint,
				Name: "opt.brent_root",
				Attrs: map[string]float64{
					"iter":  float64(iters),
					"width": math.Abs(b - a),
					"fb":    fb,
				},
			})
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
		if fb == 0 || math.Abs(b-a) < tol {
			o.Gauge("opt.brent.bracket_width").Set(math.Abs(b - a))
			return finish(b, nil)
		}
		var s float64
		if fa != fc && fb != fc {
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant step.
			s = b - fb*(b-a)/(fb-fa)
		}
		cond := (s < (3*a+b)/4 && s < b) || (s > (3*a+b)/4 && s > b)
		if !((s > (3*a+b)/4 && s < b) || (s < (3*a+b)/4 && s > b)) {
			cond = true
		}
		switch {
		case cond,
			mflag && math.Abs(s-b) >= math.Abs(b-c)/2,
			!mflag && math.Abs(s-b) >= math.Abs(c-d)/2:
			s = (a + b) / 2
			mflag = true
		default:
			mflag = false
		}
		fs := eval(s)
		d, c, fc = c, b, fb
		if (fa > 0) != (fs > 0) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
	}
	return finish(0, fmt.Errorf("optimize: Brent root did not converge on [%v, %v]", lo, hi))
}
