package engine

import (
	"context"
	"fmt"
	"math"

	"repro/internal/nonoblivious"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/sim"
)

// Default optimization knobs. The scalar defaults reproduce the numeric
// cross-checks the CLI ran before optimization moved into the engine
// (101-point grid, 1e-10 bracket), so their outputs stay bit-identical.
const (
	// DefaultOptimizeGrid is the scalar grid resolution.
	DefaultOptimizeGrid = 101
	// DefaultOptimizeTol is the bracket / simplex-spread tolerance.
	DefaultOptimizeTol = 1e-10
	// DefaultOptimizePasses caps the vector coordinate-ascent passes
	// (ascent stops earlier on the first pass without improvement).
	DefaultOptimizePasses = 64
)

// OptimizeOptions configures one optimization run.
type OptimizeOptions struct {
	// Backend selects the evaluation backend for every probe.
	Backend Backend
	// Sim configures the Monte-Carlo backend (zero Trials selects the
	// engine default).
	Sim sim.Config
	// GridPoints is the scalar path's grid resolution; 0 selects
	// DefaultOptimizeGrid.
	GridPoints int
	// Tol is the convergence tolerance; 0 selects DefaultOptimizeTol.
	Tol float64
	// Passes caps the vector path's coordinate-ascent passes; 0 selects
	// DefaultOptimizePasses.
	Passes int
}

// OptimizeResult is the outcome of one optimization run.
type OptimizeResult struct {
	// Family is the optimized family's name.
	Family string
	// Params is the best parameter vector found.
	Params []float64
	// Rule is the materialized rule at Params.
	Rule Rule
	// Value is the winning probability at Params.
	Value float64
	// Backend is the backend that evaluated the probes (never Auto).
	Backend Backend
	// Evals counts objective evaluations (cache hits included).
	Evals int
	// CacheHits counts the evaluations served from the memoization cache.
	CacheHits int
	// Iterations counts searcher iterations (bracket shrinks for the
	// scalar path, ascent passes plus simplex moves for the vector path).
	Iterations int
	// DeltaUpdates counts the reusable evaluator's line-profile probes:
	// single-coordinate evaluations served without a table rebuild (0
	// when the search ran without table reuse).
	DeltaUpdates uint64
	// Degraded reports that the context expired mid-search and the result
	// is the best point evaluated before the deadline, not a converged
	// optimum.
	Degraded bool
}

// OptimizeCtx maximizes the family's winning probability over its parameter
// box. Probes route through EvaluateWithCtx's memoizing path (on a
// heterogeneous Exact/Auto instance with one set of exact tables per
// search), so repeated points hit the memoization cache, concurrent
// searches coalesce, and — when ctx carries an obs span — the search emits
// the engine.optimize → engine.evaluate → backend.* trace tree. Scalar families
// run grid-then-golden search; higher-dimensional families run coordinate
// ascent followed by a Nelder-Mead polish, keeping the better optimum.
//
// Probe counts land in the optimize.evals / optimize.cache_hits counters.
// A cancellable ctx bounds the search: once ctx expires, remaining probes
// fail fast and the call returns the best point already evaluated with
// Degraded set — the serving layer's best-so-far degraded response — or
// ctx.Err() when the deadline struck before any probe finished.
func (e *Engine) OptimizeCtx(ctx context.Context, inst Instance, fam RuleFamily, opts OptimizeOptions) (OptimizeResult, error) {
	if fam == nil {
		return OptimizeResult{}, fmt.Errorf("engine: nil rule family")
	}
	if err := inst.Validate(); err != nil {
		return OptimizeResult{}, err
	}
	lo, hi, err := fam.Bounds(inst)
	if err != nil {
		return OptimizeResult{}, err
	}
	if len(lo) == 0 || len(lo) != len(hi) {
		return OptimizeResult{}, fmt.Errorf("engine: family %s returned an invalid %d/%d-dimensional box", fam.Name(), len(lo), len(hi))
	}
	if opts.GridPoints <= 0 {
		opts.GridPoints = DefaultOptimizeGrid
	}
	if opts.Tol <= 0 {
		opts.Tol = DefaultOptimizeTol
	}
	if opts.Passes <= 0 {
		opts.Passes = DefaultOptimizePasses
	}

	var sp *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		sp = parent.Child("engine.optimize")
		sp.SetField("family", fam.Name())
		sp.SetField("backend", opts.Backend.String())
		ctx = obs.ContextWithSpan(ctx, sp)
		defer sp.End()
	}

	// Vector searches over homogeneous threshold instances probe through a
	// per-search reusable evaluator: its tables are allocated once, and a
	// probe is a line-profile evaluation or a full rebuild (see
	// nonoblivious.Evaluator.EvaluateVector). Probes deliberately do NOT
	// consult the memo store — probe values must depend only on the probe
	// sequence, never on cache state, so concurrent searches stay
	// bit-identical. Profile probes agree with the one-shot path within
	// the exact backend's certified error bound; the final optimum is
	// re-evaluated through the normal memoizing path below, so the
	// returned Value carries the one-shot bits and repeated searches hit
	// the cache there.
	var pev *nonoblivious.Evaluator
	if len(lo) > 1 && (opts.Backend == Exact || opts.Backend == Auto) && !inst.Heterogeneous() {
		if _, ok := fam.(ThresholdVectorFamily); ok && inst.N <= nonoblivious.MaxNGeneral {
			if evp, eerr := nonoblivious.NewEvaluator(inst.N, inst.Delta); eerr == nil {
				pev = evp
			}
		}
	}

	// An Exact/Auto search on a heterogeneous instance keeps one set of
	// exact tables for all of its probes (an α search builds its π-only CDF
	// table once, a threshold or vector search rebuilds one kernel in
	// place). Unlike pev's, these probes still go through the memo store
	// and the singleflight: table-served values carry the one-shot bits, so
	// the cache and the trajectory are those of one-shot probes.
	var tables *exactTables
	if (opts.Backend == Exact || opts.Backend == Auto) && inst.Heterogeneous() {
		tables = new(exactTables)
	}

	best := OptimizeResult{Family: fam.Name(), Value: math.Inf(-1)}
	var firstErr error
	objective := func(params []float64) float64 {
		r, err := fam.Rule(inst, params)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return math.Inf(-1)
		}
		best.Evals++
		e.obs.Counter("optimize.evals").Inc()
		var p float64
		var backend Backend
		cached := false
		if pev != nil {
			if ctx.Err() != nil {
				return math.Inf(-1)
			}
			var perr error
			p, perr = pev.EvaluateVector(params)
			if perr != nil {
				if firstErr == nil {
					firstErr = perr
				}
				return math.Inf(-1)
			}
			backend = Exact
		} else {
			res, err := e.evaluate(ctx, inst, r, opts.Backend, opts.Sim, tables)
			if err != nil {
				if firstErr == nil && ctx.Err() == nil {
					firstErr = err
				}
				return math.Inf(-1)
			}
			p, backend, cached = res.P, res.Backend, res.Cached
		}
		if cached {
			best.CacheHits++
			e.obs.Counter("optimize.cache_hits").Inc()
		}
		if p > best.Value {
			best.Value = p
			best.Params = append(best.Params[:0], params...)
			best.Rule = r
			best.Backend = backend
		}
		return p
	}

	if len(lo) == 1 {
		res, serr := optimize.GridThenGoldenMax(e.obs, func(x float64) float64 {
			return objective([]float64{x})
		}, lo[0], hi[0], opts.GridPoints, opts.Tol)
		if serr != nil {
			return OptimizeResult{}, serr
		}
		best.Iterations = res.Iterations
		// On a flat maximum several probes tie the best value; report the
		// searcher's own argmax among them, so the engine answers exactly
		// what the plain search does.
		if len(best.Params) == 1 && res.Value == best.Value && res.X != best.Params[0] {
			if r, rerr := fam.Rule(inst, []float64{res.X}); rerr == nil {
				best.Params[0], best.Rule = res.X, r
			}
		}
	} else {
		start := make([]float64, len(lo))
		for i := range start {
			start[i] = (lo[i] + hi[i]) / 2
		}
		ca, serr := optimize.CoordinateAscentBox(e.obs, objective, start, lo, hi, opts.Passes, opts.Tol)
		if serr != nil {
			return OptimizeResult{}, serr
		}
		// Polish with Nelder-Mead from the ascent's optimum: coordinate
		// ascent can stall on diagonal ridges that simplex moves cross.
		minWidth := math.Inf(1)
		for i := range lo {
			minWidth = math.Min(minWidth, hi[i]-lo[i])
		}
		nm, serr := optimize.NelderMeadMax(e.obs, objective, ca.X, lo, hi, minWidth/8, 200*len(lo), opts.Tol)
		if serr != nil {
			return OptimizeResult{}, serr
		}
		best.Iterations = ca.Iterations + nm.Iterations
	}

	if pev != nil {
		st := pev.Stats()
		best.DeltaUpdates = st.DeltaUpdates
		e.obs.Counter("exact.delta.updates").Add(int64(st.DeltaUpdates))
		e.obs.Counter("exact.delta.subsets").Add(int64(st.DeltaSubsets))
		if best.Rule != nil {
			// Canonicalize: line-profile probe values drift within the
			// certified bound, so the reported optimum is re-evaluated
			// through the normal memoizing path and carries the one-shot
			// bits. A deadline striking here keeps the evaluator's value;
			// the result is flagged Degraded below.
			res, rerr := e.EvaluateWithCtx(ctx, inst, best.Rule, opts.Backend, opts.Sim)
			best.Evals++
			e.obs.Counter("optimize.evals").Inc()
			if rerr == nil {
				best.Value = res.P
				best.Backend = res.Backend
				if res.Cached {
					best.CacheHits++
					e.obs.Counter("optimize.cache_hits").Inc()
				}
			}
		}
	}

	if sp != nil {
		sp.SetAttr("evals", float64(best.Evals))
		sp.SetAttr("cache_hits", float64(best.CacheHits))
		if pev != nil {
			sp.SetAttr("optimize.table_reuse", 1)
			sp.SetAttr("optimize.delta_updates", float64(best.DeltaUpdates))
		}
	}
	if math.IsInf(best.Value, -1) {
		// No probe succeeded: report the deadline if one struck, the first
		// evaluation error otherwise.
		if cerr := ctx.Err(); cerr != nil {
			return OptimizeResult{}, cerr
		}
		if firstErr != nil {
			return OptimizeResult{}, firstErr
		}
		return OptimizeResult{}, fmt.Errorf("engine: optimization of %s produced no finite value", fam.Name())
	}
	if ctx.Err() != nil {
		best.Degraded = true
		sp.SetAttr("degraded", 1)
	}
	return best, nil
}
