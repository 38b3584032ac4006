package oblivious

import (
	"fmt"
	"math"

	"repro/internal/combin"
	"repro/internal/dist"
	"repro/internal/problem"
)

// EvalStats counts the work an Evaluator performed since construction.
type EvalStats struct {
	// Evaluations is the number of Evaluate/SetCoord calls that produced
	// a value.
	Evaluations uint64
	// FullRebuilds counts full product-table rebuilds (the CDF table is
	// built exactly once, at construction).
	FullRebuilds uint64
	// DeltaUpdates counts single-coordinate evaluations that re-propagated
	// only the 2^(n-1) bin-choice weight cells containing the changed
	// coordinate.
	DeltaUpdates uint64
	// DeltaSubsets is the number of subset cells those updates touched.
	DeltaSubsets uint64
	// Table is the work of the one-time subset-CDF table build.
	Table dist.SubsetVolumeStats
}

// Evaluator is a reusable heterogeneous Theorem 4.1 evaluator for a fixed
// instance (π, δ): the O(n²·2^n) subset-CDF table — the only part of the
// evaluation that depends on the instance rather than the rule — is built
// once at construction, and each α-vector evaluation then costs one
// product-table refresh plus the O(2^n) bin-choice sum. A
// single-coordinate change (the 1-D sweep and coordinate-search pattern)
// re-propagates only the 2^(n-1) weight cells containing the changed
// coordinate. WinningProbabilityPi is a one-shot Evaluator.
//
// Every path is bit-identical to a fresh evaluator's full evaluation (and
// so to WinningProbabilityPi): the product tables delta-update with
// the exact build recurrence and the bin-choice sum replicates the fixed
// chunk grid, Neumaier partials, and pairwise reduction of
// combin.ChunkedMaskSum. Values from a reused evaluator are therefore safe
// to memoize under the same cache keys as the one-shot path. Zero
// steady-state allocations.
type Evaluator struct {
	n        int
	capacity float64
	built    bool
	pi       []float64
	cdf      []float64 // F_T(δ), fixed for the life of the evaluator
	alphas   []float64 // committed bin-choice vector
	oneMinus []float64
	pZero    *combin.ProductTable // Π_{i∈T} α_i
	pOne     *combin.ProductTable // Π_{i∈T} (1-α_i)
	partial  []float64
	value    float64
	stats    EvalStats
}

// NewEvaluator builds the subset-CDF table for a heterogeneous instance
// x_i ~ U[0, π_i] with bin capacity δ. The int argument is ignored: the
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
	for i, w := range pi {
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("oblivious: input range π[%d] = %v must be strictly positive and finite", i, w)
		}
		if w != 1 {
			hetero = true
		}
	}
	if !hetero {
		return nil, fmt.Errorf("oblivious: evaluator requires heterogeneous input ranges; use WinningProbability for π ≡ 1")
	}
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return nil, fmt.Errorf("oblivious: capacity %v must be strictly positive and finite", capacity)
	}
	vol, table, err := dist.AllSubsetVolumes(pi, capacity, nil)
	if err != nil {
		return nil, err
	}
	piProd, err := combin.SubsetProducts(nil, pi)
	if err != nil {
		return nil, err
	}
	for mask := range vol {
		vol[mask] = clamp01(vol[mask] / piProd[mask])
	}
	pZero, err := combin.NewProductTable(n)
	if err != nil {
		return nil, err
	}
	pOne, err := combin.NewProductTable(n)
	if err != nil {
		return nil, err
	}
	_, chunks := combin.ChunkSpan(uint64(1) << uint(n))
	return &Evaluator{
		n:        n,
		capacity: capacity,
		pi:       append([]float64(nil), pi...),
		cdf:      vol,
		alphas:   make([]float64, n),
		oneMinus: make([]float64, n),
		pZero:    pZero,
		pOne:     pOne,
		partial:  make([]float64, chunks),
		stats:    EvalStats{Table: table},
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
// fixed CDF table. A vector differing from the committed one in a single
// coordinate is delta-updated; anything wider refreshes the product
// tables in full (still no allocations). The result is committed and
// bit-identical to WinningProbabilityPi.
func (ev *Evaluator) Evaluate(alphas []float64) (float64, error) {
	if err := validateAlphas(alphas); err != nil {
		return 0, err
	}
	if len(alphas) != ev.n {
		return 0, fmt.Errorf("oblivious: evaluator built for %d players, got %d", ev.n, len(alphas))
	}
	if ev.built {
		diff, d1 := 0, -1
		for i := range alphas {
			if alphas[i] != ev.alphas[i] {
				diff++
				d1 = i
			}
		}
		switch diff {
		case 0:
			ev.stats.Evaluations++
			return ev.value, nil
		case 1:
			return ev.SetCoord(d1, alphas[d1])
		}
	}
	copy(ev.alphas, alphas)
	for i, a := range alphas {
		ev.oneMinus[i] = 1 - a
	}
	if err := ev.pZero.Build(ev.alphas); err != nil {
		return 0, err
	}
	if err := ev.pOne.Build(ev.oneMinus); err != nil {
		return 0, err
	}
	ev.value = ev.maskSum()
	ev.built = true
	ev.stats.FullRebuilds++
	ev.stats.Evaluations++
	return ev.value, nil
}

// SetCoord commits α_i = a with a delta update, re-propagating only the
// 2^(n-1) product-table cells containing i, and returns the updated
// winning probability — bit-identical to a full evaluation of the
// resulting vector.
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
	if a == ev.alphas[i] {
		ev.stats.Evaluations++
		return ev.value, nil
	}
	ev.alphas[i] = a
	ev.oneMinus[i] = 1 - a
	if err := ev.pZero.SetCoord(i, a); err != nil {
		return 0, err
	}
	if err := ev.pOne.SetCoord(i, ev.oneMinus[i]); err != nil {
		return 0, err
	}
	ev.value = ev.maskSum()
	ev.stats.DeltaUpdates++
	ev.stats.DeltaSubsets += uint64(1) << uint(ev.n-1)
	ev.stats.Evaluations++
	return ev.value, nil
}

// maskSum reduces Σ_S w(S)·F_{Sᶜ}(δ)·F_S(δ) over the fixed chunk grid with
// Neumaier partials and combin.ReducePartials — bit-identical to the
// combin.ChunkedMaskSum reduction.
func (ev *Evaluator) maskSum() float64 {
	pZero, pOne, cdf := ev.pZero.Values(), ev.pOne.Values(), ev.cdf
	size := uint64(1) << uint(ev.n)
	full := size - 1
	span, chunks := combin.ChunkSpan(size)
	for c := uint64(0); c < chunks; c++ {
		lo := c * span
		hi := lo + span
		if hi > size {
			hi = size
		}
		var acc combin.Accumulator
		for s := lo; s < hi; s++ {
			z := full &^ s
			w := pZero[z] * pOne[s]
			if w == 0 {
				continue
			}
			acc.Add(w * cdf[z] * cdf[s])
		}
		ev.partial[c] = acc.Sum()
	}
	return clamp01(combin.ReducePartials(ev.partial[:chunks]))
}
