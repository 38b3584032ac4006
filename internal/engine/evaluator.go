package engine

import (
	"sync"

	"repro/internal/dist"
	"repro/internal/nonoblivious"
	"repro/internal/oblivious"
	"repro/internal/obs"
)

// tableRule is implemented by the oblivious and threshold rules, whose
// heterogeneous exact evaluation exactTables can serve. exact is the one
// body behind the rule's ExactWinProbabilityOpts, which passes nil tables.
type tableRule interface {
	exact(inst Instance, t *exactTables, o *obs.Observer) (float64, error)
}

// exactTables are the reusable exact tables of one search or one sweep
// worker, all of whose points lie on one heterogeneous instance. They are
// built at the first point that needs them and live as long as their
// owner, never longer. Every value carries the bits of the one-shot
// functions, so results memoize under the normal keys. The mutex
// serializes the owner against evaluations it abandoned at their deadline,
// which keep running in the background.
//
// Counting rule: every point flushes to the exact.* counters the work it
// actually computed. The first α point builds the oblivious evaluator and
// records its CDF table; later α points reuse that table and record
// nothing, because the mass tables and the pair sum are not counted by a
// one-shot either. Every threshold point rebuilds the kernel's tables and
// records that build, as the one-shot does.
type exactTables struct {
	mu     sync.Mutex
	obl    *oblivious.Evaluator  // α rules: the π-only CDF table, built once
	kernel *dist.TwoBranchKernel // threshold rules: rebuilt in place per point
}

// oblivious evaluates the α-vector on the heterogeneous instance: one-shot
// through oblivious.WinningProbabilityPi when t is nil, and from t's
// oblivious evaluator otherwise.
func (t *exactTables) oblivious(alphas []float64, inst Instance, o *obs.Observer) (float64, error) {
	if t == nil {
		return oblivious.WinningProbabilityPi(alphas, inst.Pi, inst.Delta, o)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.obl == nil {
		ev, err := oblivious.NewEvaluator(inst.Pi, inst.Delta, 1)
		if err != nil {
			// A refused instance: the one-shot refuses it identically.
			return oblivious.WinningProbabilityPi(alphas, inst.Pi, inst.Delta, o)
		}
		ev.Stats().Table.Record(o)
		t.obl = ev
	}
	return t.obl.Evaluate(alphas)
}

// threshold evaluates the threshold vector on the heterogeneous instance:
// one-shot through nonoblivious.WinningProbabilityPi when t is nil, and
// built into t's kernel otherwise.
func (t *exactTables) threshold(thresholds []float64, inst Instance, o *obs.Observer) (float64, error) {
	if t == nil {
		return nonoblivious.WinningProbabilityPi(thresholds, inst.Pi, inst.Delta, o)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.kernel == nil {
		t.kernel = new(dist.TwoBranchKernel)
	}
	return nonoblivious.WinningProbabilityPiInto(t.kernel, thresholds, inst.Pi, inst.Delta, o)
}

// sweepUsesTables reports whether each worker of a sweep keeps
// exactTables: an Exact/Auto backend, at least two points, every point on
// one shared heterogeneous instance, and every rule a tableRule (the α and
// β sweeps and their chunked or streamed variants).
func sweepUsesTables(points []Point, backend Backend) bool {
	if backend != Exact && backend != Auto {
		return false
	}
	if len(points) < 2 || !points[0].Instance.Heterogeneous() {
		return false
	}
	key := points[0].Instance.Key()
	for _, pt := range points {
		if _, ok := pt.Rule.(tableRule); !ok {
			return false
		}
		if pt.Instance.Key() != key {
			return false
		}
	}
	return true
}
