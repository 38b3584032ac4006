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

// exactTables are the exact tables of one search or one sweep worker: one
// dist.TwoBranchKernel that every heterogeneous point builds into. The
// kernel decides what a point rebuilds, so reuse is correct for any
// sequence of points: a point whose load intervals and δ equal the last
// build's re-weights its mass tables, and any other rebuilds in place.
// The tables live as long as their owner, never longer, and every value
// carries the bits of the one-shot functions, so results memoize under
// the normal keys. Each point records in the exact.* counters the table
// work its build did, nothing when the tables were kept. The mutex
// serializes the owner against evaluations it abandoned at their
// deadline, which keep running in the background.
type exactTables struct {
	mu     sync.Mutex
	kernel dist.TwoBranchKernel
}

// oblivious evaluates the α-vector on the instance: into t's kernel, or
// one-shot when t is nil.
func (t *exactTables) oblivious(alphas []float64, inst Instance, o *obs.Observer) (float64, error) {
	if t == nil {
		return oblivious.WinningProbabilityPi(alphas, inst.Pi, inst.Delta, o)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return oblivious.WinningProbabilityPiInto(&t.kernel, alphas, inst.Pi, inst.Delta, o)
}

// threshold evaluates the threshold vector on the instance: into t's
// kernel, or one-shot when t is nil.
func (t *exactTables) threshold(thresholds []float64, inst Instance, o *obs.Observer) (float64, error) {
	if t == nil {
		return nonoblivious.WinningProbabilityPi(thresholds, inst.Pi, inst.Delta, o)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return nonoblivious.WinningProbabilityPiInto(&t.kernel, thresholds, inst.Pi, inst.Delta, o)
}
