package oblivious

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dist"
	"repro/internal/problem"
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
// instance (π, δ): the subset-CDF table of dist.TwoBranchKernel — the only
// part of the evaluation that depends on the instance rather than the
// rule — is built once at construction, and each α-vector evaluation then
// costs the kernel's two mass tables and its pair sum, O(2^n).
// WinningProbabilityPi is a one-shot Evaluator, so values from a reused
// evaluator are its bits and safe to memoize under the same cache keys.
// Zero steady-state allocations.
type Evaluator struct {
	n        int
	capacity float64
	built    bool
	kernel   *dist.TwoBranchKernel
	alphas   []float64 // committed bin-choice vector
	oneMinus []float64
	value    float64
	stats    EvalStats
}

// NewEvaluator builds the subset-CDF table for a heterogeneous instance
// x_i ~ U[0, π_i] with bin capacity δ: player i is the two-branch player
// with both loads uniform on [0, π_i]. The int argument is ignored: the
// table is built serially, and the parameter stays only for the benchmark
// module, which still passes a worker count. Homogeneous instances (all
// π_i = 1) are rejected: they have a closed-form evaluator
// (WinningProbability) that is already cheap, and WinningProbabilityPi
// delegates to it rather than building tables.
func NewEvaluator(pi []float64, capacity float64, _ int) (*Evaluator, error) {
	n := len(pi)
	if n < 2 {
		return nil, fmt.Errorf("oblivious: need at least 2 players, got %d", n)
	}
	if n > MaxNHetero {
		return nil, problem.PlayerCapError("oblivious: heterogeneous evaluation limited to %d players, got %d", MaxNHetero, n)
	}
	hetero := false
	players := make([]dist.TwoBranch, n)
	for i, w := range pi {
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("oblivious: input range π[%d] = %v must be strictly positive and finite", i, w)
		}
		hetero = hetero || w != 1
		players[i] = dist.TwoBranch{Hi0: w, Hi1: w}
	}
	if !hetero {
		return nil, fmt.Errorf("oblivious: evaluator requires heterogeneous input ranges; use WinningProbability for π ≡ 1")
	}
	k, err := dist.NewTwoBranchKernel(players, capacity)
	if err != nil {
		return nil, err
	}
	return &Evaluator{
		n:        n,
		capacity: capacity,
		kernel:   k,
		alphas:   make([]float64, n),
		oneMinus: make([]float64, n),
		stats:    EvalStats{Table: k.Stats()},
	}, nil
}

// N returns the player count.
func (ev *Evaluator) N() int { return ev.n }

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
	if err := validateAlphas(alphas); err != nil {
		return 0, err
	}
	if len(alphas) != ev.n {
		return 0, fmt.Errorf("oblivious: evaluator built for %d players, got %d", ev.n, len(alphas))
	}
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
	if i < 0 || i >= ev.n {
		return 0, fmt.Errorf("oblivious: evaluator coordinate %d out of range [0, %d)", i, ev.n)
	}
	if math.IsNaN(a) || a < 0 || a > 1 {
		return 0, fmt.Errorf("oblivious: α[%d] = %v outside [0, 1]", i, a)
	}
	ev.alphas[i] = a
	return ev.rebuild(ev.alphas)
}

// rebuild commits alphas, refreshes the kernel's mass tables and reruns
// its pair sum.
func (ev *Evaluator) rebuild(alphas []float64) (float64, error) {
	copy(ev.alphas, alphas)
	for i, a := range alphas {
		ev.oneMinus[i] = 1 - a
	}
	if err := ev.kernel.SetMasses(ev.alphas, ev.oneMinus); err != nil {
		return 0, err
	}
	ev.value = ev.kernel.Sum()
	ev.built = true
	ev.stats.FullRebuilds++
	ev.stats.Evaluations++
	return ev.value, nil
}
