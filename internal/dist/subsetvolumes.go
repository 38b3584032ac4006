package dist

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/combin"
	"repro/internal/obs"
)

// SubsetVolumeStats counts the work one AllSubsetVolumes call performed,
// for the exact backend's observability counters.
type SubsetVolumeStats struct {
	// Subsets is the number of subset cells produced (2^n).
	Subsets uint64
	// Incremental is the number of O(1) incremental state updates: the
	// per-exponent radix-power updates plus the sum-over-subsets pair
	// additions.
	Incremental uint64
	// Rebuilt is the number of cells whose base term had to be rebuilt
	// from scratch rather than updated incrementally (zero here: the
	// shared threshold makes every radix exponent-independent).
	Rebuilt uint64
}

// Record flushes one exact evaluation's work into the exact backend's
// observability counters: the subset table's cells and steps, the chunks
// of the final mask sum, and the worker count. A nil observer records
// nothing.
func (s SubsetVolumeStats) Record(o *obs.Observer, chunks, workers int) {
	o.Counter("exact.subsets").Add(int64(s.Subsets))
	o.Counter("exact.steps.incremental").Add(int64(s.Incremental))
	o.Counter("exact.steps.rebuilt").Add(int64(s.Rebuilt))
	o.Counter("exact.chunks").Add(int64(chunks))
	o.Gauge("exact.workers").Set(float64(workers))
}

// AllSubsetVolumes returns vol[T] = Vol{y : 0 ≤ y_i ≤ w_i (i ∈ T),
// Σ_{i∈T} y_i ≤ t} for every T ⊆ {0, ..., n-1} — the Proposition 2.2
// box-simplex volume of every subset of the widths at one shared threshold
// t — in O(n²·2^n) float64 operations total, against Θ(3^n) for evaluating
// each subset's inclusion-exclusion sum independently.
//
// Inclusion-exclusion gives Vol(T) = (1/m!) Σ_{I⊆T} (−1)^{|I|} (t−σ_I)_+^m
// with m = |T| and σ_I = Σ_{i∈I} w_i. Two observations make the joint
// computation cheap:
//
//   - the radix t−σ_I does not depend on m, so the signed base table
//     p_m[I] = (−1)^{|I|} (t−σ_I)_+^m / m! is maintained incrementally
//     across exponents: p_m[I] = p_{m−1}[I] · (t−σ_I)/m, one multiply per
//     cell per exponent;
//   - for a fixed m, Σ_{I⊆T} p_m[I] for every T at once is the bitwise
//     sum-over-subsets (zeta) transform, n·2^(n-1) pair additions.
//
// Entries with |T| = m are read off after pass m. Volumes are clamped
// below at 0; dividing vol[T] by Π_{i∈T} w_i yields the Lemma 2.4 CDF of
// Σ_{i∈T} U[0, w_i] at t. Zero widths are admitted (their coordinates
// contribute zero volume, so vol[T] = 0 for any T containing one).
//
// workers shards the zeta passes; results are bit-identical for every
// worker count because the pass structure and all write locations are
// fixed by n alone.
func AllSubsetVolumes(widths []float64, t float64, workers int) ([]float64, SubsetVolumeStats, error) {
	n := len(widths)
	var stats SubsetVolumeStats
	if n > combin.MaxSubsetTable {
		return nil, stats, fmt.Errorf("dist: subset-volume table limited to %d dimensions, got %d", combin.MaxSubsetTable, n)
	}
	for i, w := range widths {
		if math.IsNaN(w) || w < 0 || math.IsInf(w, 1) {
			return nil, stats, fmt.Errorf("dist: width %d = %v must be finite and non-negative", i, w)
		}
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, stats, fmt.Errorf("dist: subset-volume threshold %v must be finite", t)
	}
	size := uint64(1) << uint(n)
	stats.Subsets = size
	vol := make([]float64, size)
	if t >= 0 {
		vol[0] = 1 // the empty box-simplex
	}
	if n == 0 {
		return vol, stats, nil
	}
	sums, err := combin.SubsetSums(widths)
	if err != nil {
		return nil, stats, err
	}
	// radix[I] = t − σ_I, reusing the sums table in place.
	radix := sums
	p := make([]float64, size)
	for mask := uint64(0); mask < size; mask++ {
		r := t - radix[mask]
		radix[mask] = r
		if r > 0 {
			if bits.OnesCount64(mask)%2 == 1 {
				p[mask] = -1
			} else {
				p[mask] = 1
			}
		}
	}
	scratch := make([]float64, size)
	for m := 1; m <= n; m++ {
		invM := 1 / float64(m)
		for mask := uint64(0); mask < size; mask++ {
			v := p[mask] * radix[mask] * invM
			p[mask] = v
			scratch[mask] = v
		}
		if err := combin.SumOverSubsets(scratch, n, workers); err != nil {
			return nil, stats, err
		}
		// Only the |T| = m entries are volumes at this exponent.
		if err := combin.ForEachKSubsetMask(n, m, func(mask uint64) bool {
			v := scratch[mask]
			if v < 0 {
				v = 0
			}
			vol[mask] = v
			return true
		}); err != nil {
			return nil, stats, err
		}
	}
	// Per exponent: 2^n radix-power updates plus n·2^(n-1) zeta additions.
	stats.Incremental = uint64(n)*size + uint64(n)*uint64(n)*size/2
	return vol, stats, nil
}
