package optimize

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// VectorResult is the outcome of a multi-dimensional maximization.
type VectorResult struct {
	// X is the maximizing point.
	X []float64
	// Value is the function value at X.
	Value float64
	// Iterations counts outer iterations performed.
	Iterations int
}

// CoordinateAscentBox maximizes f over the box Π [lo_i, hi_i] by cyclic
// coordinate ascent: each pass line-maximizes every coordinate with
// golden-section search. It converges to a coordinate-wise maximum, which
// for the paper's smooth winning-probability surfaces coincides with the
// stationary points the optimality conditions describe. It returns an
// error on invalid bounds, a nil objective, or an out-of-box start.
//
// With a non-nil observer the whole ascent runs under an
// opt.coordinate_ascent span, passes are counted in opt.coord.passes, each
// line search's opt.golden.* counters accumulate, and one
// opt.coordinate_ascent checkpoint event per pass records the live best
// value; nil means uninstrumented.
func CoordinateAscentBox(o *obs.Observer, f func([]float64) float64, start, lo, hi []float64, passes int, tol float64) (VectorResult, error) {
	n := len(start)
	if f == nil {
		return VectorResult{}, fmt.Errorf("optimize: nil objective")
	}
	if n == 0 || len(lo) != n || len(hi) != n {
		return VectorResult{}, fmt.Errorf("optimize: dimension mismatch (start %d, lo %d, hi %d)", n, len(lo), len(hi))
	}
	if passes <= 0 {
		return VectorResult{}, fmt.Errorf("optimize: pass count %d must be positive", passes)
	}
	if !(tol > 0) {
		return VectorResult{}, fmt.Errorf("optimize: non-positive tolerance %v", tol)
	}
	x := make([]float64, n)
	copy(x, start)
	for i := 0; i < n; i++ {
		if !(lo[i] < hi[i]) {
			return VectorResult{}, fmt.Errorf("optimize: invalid bounds [%v, %v] at coordinate %d", lo[i], hi[i], i)
		}
		if x[i] < lo[i] || x[i] > hi[i] {
			return VectorResult{}, fmt.Errorf("optimize: start[%d] = %v outside [%v, %v]", i, x[i], lo[i], hi[i])
		}
	}
	sp := o.StartSpan("opt.coordinate_ascent")
	defer sp.End()
	value := f(x)
	iterations := 0
	for pass := 0; pass < passes; pass++ {
		iterations++
		improved := false
		for i := 0; i < n; i++ {
			xi := x[i]
			line := func(v float64) float64 {
				x[i] = v
				out := f(x)
				x[i] = xi
				return out
			}
			res, err := GoldenSectionMax(o, line, lo[i], hi[i], tol)
			if err != nil {
				return VectorResult{}, fmt.Errorf("optimize: line search on coordinate %d: %w", i, err)
			}
			if res.Value > value+1e-15 {
				x[i] = res.X
				value = res.Value
				improved = true
			}
		}
		if o.Enabled() {
			o.Emit(obs.Event{
				Type: obs.EventCheckpoint,
				Name: "opt.coordinate_ascent",
				Attrs: map[string]float64{
					"pass": float64(iterations),
					"best": value,
				},
			})
		}
		if !improved {
			break
		}
	}
	o.Counter("opt.coord.passes").Add(int64(iterations))
	return VectorResult{X: x, Value: value, Iterations: iterations}, nil
}

// NelderMeadMax maximizes f over the box [lo, hi] starting from a simplex
// around start with the given initial step, for at most maxIter iterations
// or until the simplex value spread falls below tol. Box constraints are
// enforced with a smooth exterior penalty (clamping would flatten simplex
// vertices onto a boundary face and degenerate the search), and the search
// automatically restarts once from its own optimum with a smaller step to
// escape collapsed simplices. It returns an error on invalid arguments.
//
// With a non-nil observer the search (both descents) runs under an
// opt.nelder_mead span and the total simplex iteration count lands in
// opt.nm.iterations; nil means uninstrumented.
func NelderMeadMax(o *obs.Observer, f func([]float64) float64, start, lo, hi []float64, step float64, maxIter int, tol float64) (VectorResult, error) {
	n := len(start)
	if f == nil {
		return VectorResult{}, fmt.Errorf("optimize: nil objective")
	}
	if n == 0 || len(lo) != n || len(hi) != n {
		return VectorResult{}, fmt.Errorf("optimize: dimension mismatch")
	}
	if !(step > 0) || !(tol > 0) || maxIter <= 0 {
		return VectorResult{}, fmt.Errorf("optimize: invalid step %v, tol %v, or maxIter %d", step, tol, maxIter)
	}
	sp := o.StartSpan("opt.nelder_mead")
	defer sp.End()
	first, err := nelderMeadOnce(f, start, lo, hi, step, maxIter, tol)
	if err != nil {
		return VectorResult{}, err
	}
	second, err := nelderMeadOnce(f, first.X, lo, hi, step/4, maxIter, tol)
	if err != nil {
		return VectorResult{}, err
	}
	second.Iterations += first.Iterations
	o.Counter("opt.nm.iterations").Add(int64(second.Iterations))
	if first.Value > second.Value {
		first.Iterations = second.Iterations
		return first, nil
	}
	return second, nil
}

func nelderMeadOnce(f func([]float64) float64, start, lo, hi []float64, step float64, maxIter int, tol float64) (VectorResult, error) {
	n := len(start)
	// Minimize the negated objective with the standard simplex moves.
	// Out-of-box points receive a steep exterior penalty proportional to
	// their violation, so the simplex is pushed back inside without
	// degenerating.
	neg := func(x []float64) float64 {
		var violation float64
		inside := make([]float64, n)
		for i := range x {
			v := x[i]
			if v < lo[i] {
				violation += lo[i] - v
				v = lo[i]
			}
			if v > hi[i] {
				violation += v - hi[i]
				v = hi[i]
			}
			inside[i] = v
		}
		val := -f(inside)
		if violation > 0 {
			val += 1e6 * violation * (1 + math.Abs(val))
		}
		return val
	}

	pts := make([][]float64, n+1)
	vals := make([]float64, n+1)
	for i := range pts {
		pts[i] = make([]float64, n)
		copy(pts[i], start)
		if i > 0 {
			pts[i][i-1] += step
		}
		vals[i] = neg(pts[i])
	}
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	iterations := 0
	for iter := 0; iter < maxIter; iter++ {
		iterations++
		// Order: best first.
		for i := 1; i <= n; i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
				pts[j], pts[j-1] = pts[j-1], pts[j]
			}
		}
		if math.Abs(vals[n]-vals[0]) < tol {
			break
		}
		// Centroid of all but the worst point.
		centroid := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				centroid[j] += pts[i][j] / float64(n)
			}
		}
		reflect := make([]float64, n)
		for j := 0; j < n; j++ {
			reflect[j] = centroid[j] + alpha*(centroid[j]-pts[n][j])
		}
		fr := neg(reflect)
		switch {
		case fr < vals[0]:
			expand := make([]float64, n)
			for j := 0; j < n; j++ {
				expand[j] = centroid[j] + gamma*(reflect[j]-centroid[j])
			}
			fe := neg(expand)
			if fe < fr {
				pts[n], vals[n] = expand, fe
			} else {
				pts[n], vals[n] = reflect, fr
			}
		case fr < vals[n-1]:
			pts[n], vals[n] = reflect, fr
		default:
			contract := make([]float64, n)
			for j := 0; j < n; j++ {
				contract[j] = centroid[j] + rho*(pts[n][j]-centroid[j])
			}
			fc := neg(contract)
			if fc < vals[n] {
				pts[n], vals[n] = contract, fc
			} else {
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						pts[i][j] = pts[0][j] + sigma*(pts[i][j]-pts[0][j])
					}
					vals[i] = neg(pts[i])
				}
			}
		}
	}
	best := 0
	for i := 1; i <= n; i++ {
		if vals[i] < vals[best] {
			best = i
		}
	}
	out := make([]float64, n)
	copy(out, pts[best])
	// Project the winner back into the box (penalized points can sit just
	// outside) and report the true objective value there.
	for i := range out {
		if out[i] < lo[i] {
			out[i] = lo[i]
		}
		if out[i] > hi[i] {
			out[i] = hi[i]
		}
	}
	return VectorResult{X: out, Value: f(out), Iterations: iterations}, nil
}
