package oblivious

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dist"
)

// EvalStats counts the work an Evaluator performed since construction.
type EvalStats struct {
	// Evaluations is the number of Evaluate/SetCoord calls that produced
	// a value.
	Evaluations uint64
	// FullRebuilds counts mass-table rebuilds (the CDF table is built
	// exactly once, at construction).
	FullRebuilds uint64
	// Table is the work of the one-time subset-CDF table build.
	Table dist.SubsetVolumeStats
}

// Evaluator is a reusable heterogeneous Theorem 4.1 evaluator for a fixed
// instance (π, δ) that commits its α-vector: WinningProbabilityPiInto
// over one kernel, whose CDF table — the only part of the evaluation that
// depends on the instance rather than the rule — is built at construction
// and kept, so each α-vector costs the kernel's two mass tables and its
// pair sum, O(2^n). Its values are the bits of WinningProbabilityPi and
// safe to memoize under the same cache keys. Zero steady-state
// allocations.
type Evaluator struct {
	pi       []float64
	capacity float64
	built    bool
	kernel   dist.TwoBranchKernel
	alphas   []float64 // committed bin-choice vector
	value    float64
	stats    EvalStats
}

// NewEvaluator builds the subset-CDF table for a heterogeneous instance
// x_i ~ U[0, π_i] with bin capacity δ, refusing what WinningProbabilityPi
// refuses. The int argument is ignored: the table is built serially, and
// the parameter stays only for the benchmark module, which still passes a
// worker count. Homogeneous instances (all π_i = 1) are rejected: they
// have a closed-form evaluator (WinningProbability) that is already cheap,
// and WinningProbabilityPi delegates to it rather than building tables.
func NewEvaluator(pi []float64, capacity float64, _ int) (*Evaluator, error) {
	if !heterogeneous(pi) {
		return nil, fmt.Errorf("oblivious: evaluator requires heterogeneous input ranges; use WinningProbability for π ≡ 1")
	}
	ev := &Evaluator{pi: slices.Clone(pi), capacity: capacity, alphas: make([]float64, len(pi))}
	if _, err := WinningProbabilityPiInto(&ev.kernel, ev.alphas, ev.pi, capacity, nil); err != nil {
		return nil, err
	}
	ev.stats.Table = ev.kernel.Stats()
	return ev, nil
}

// N returns the player count.
func (ev *Evaluator) N() int { return len(ev.pi) }

// Capacity returns the bin capacity δ.
func (ev *Evaluator) Capacity() float64 { return ev.capacity }

// Alphas returns the committed bin-choice vector. The slice is owned by
// the evaluator; callers must not modify it.
func (ev *Evaluator) Alphas() []float64 { return ev.alphas }

// Value returns the winning probability at the committed α. Only
// meaningful after a successful evaluation.
func (ev *Evaluator) Value() float64 { return ev.value }

// Stats returns the work counters accumulated since construction.
func (ev *Evaluator) Stats() EvalStats { return ev.stats }

// Evaluate computes the winning probability of an α-vector, reusing the
// fixed CDF table and rebuilding the mass tables (no allocations). An
// unchanged vector returns the committed value. The result is committed
// and bit-identical to WinningProbabilityPi.
func (ev *Evaluator) Evaluate(alphas []float64) (float64, error) {
	if ev.built && slices.Equal(alphas, ev.alphas) {
		ev.stats.Evaluations++
		return ev.value, nil
	}
	return ev.rebuild(alphas)
}

// SetCoord commits α_i = a and rebuilds, returning the updated winning
// probability — the bits of WinningProbabilityPi.
func (ev *Evaluator) SetCoord(i int, a float64) (float64, error) {
	if !ev.built {
		return 0, fmt.Errorf("oblivious: evaluator SetCoord before any full evaluation")
	}
	if i < 0 || i >= len(ev.pi) {
		return 0, fmt.Errorf("oblivious: evaluator coordinate %d out of range [0, %d)", i, len(ev.pi))
	}
	if math.IsNaN(a) || a < 0 || a > 1 {
		return 0, fmt.Errorf("oblivious: α[%d] = %v outside [0, 1]", i, a)
	}
	ev.alphas[i] = a
	return ev.rebuild(ev.alphas)
}

// rebuild commits alphas and re-weights the kernel's kept CDF table.
func (ev *Evaluator) rebuild(alphas []float64) (float64, error) {
	p, err := WinningProbabilityPiInto(&ev.kernel, alphas, ev.pi, ev.capacity, nil)
	if err != nil {
		return 0, err
	}
	copy(ev.alphas, alphas)
	ev.value = p
	ev.built = true
	ev.stats.FullRebuilds++
	ev.stats.Evaluations++
	return ev.value, nil
}
