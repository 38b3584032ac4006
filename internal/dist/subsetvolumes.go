package dist

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/combin"
	"repro/internal/obs"
)

// SubsetVolumeStats counts the work of subset-table builds
// (AllSubsetVolumes, RadixLadder), for the exact backend's observability
// counters.
type SubsetVolumeStats struct {
	// Subsets is the number of subset cells produced (2^n).
	Subsets uint64
	// Incremental is the number of O(1) incremental state updates: the
	// per-exponent radix-power updates plus the sum-over-subsets pair
	// additions.
	Incremental uint64
	// Rebuilt is the number of cells whose base term had to be rebuilt
	// from scratch rather than updated incrementally (zero for
	// AllSubsetVolumes: the shared threshold makes every radix
	// exponent-independent).
	Rebuilt uint64
}

// Add returns the work of two builds together.
func (s SubsetVolumeStats) Add(t SubsetVolumeStats) SubsetVolumeStats {
	return SubsetVolumeStats{Subsets: s.Subsets + t.Subsets, Incremental: s.Incremental + t.Incremental, Rebuilt: s.Rebuilt + t.Rebuilt}
}

// Record flushes one exact evaluation's work into the exact backend's
// observability counters: the subset table's cells and steps. A nil
// observer records nothing.
func (s SubsetVolumeStats) Record(o *obs.Observer) {
	o.Counter("exact.subsets").Add(int64(s.Subsets))
	o.Counter("exact.steps.incremental").Add(int64(s.Incremental))
	o.Counter("exact.steps.rebuilt").Add(int64(s.Rebuilt))
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
// The volumes are written to dst when it has room for their 2^n entries,
// and to a new slice otherwise (as combin.SubsetSums does). The ladder
// needs three more 2^n-entry tables as scratch: they are carved from
// scratch when its capacity holds them (3·2^n entries), and allocated
// otherwise. They hold nothing the volumes need afterwards, so a caller
// can reuse them for its own tables once the call returns.
func AllSubsetVolumes(dst, widths []float64, t float64, scratch []float64) ([]float64, SubsetVolumeStats, error) {
	n := len(widths)
	if n > combin.MaxSubsetTable {
		return nil, SubsetVolumeStats{}, fmt.Errorf("dist: subset-volume table limited to %d dimensions, got %d", combin.MaxSubsetTable, n)
	}
	for i, w := range widths {
		if math.IsNaN(w) || w < 0 || math.IsInf(w, 1) {
			return nil, SubsetVolumeStats{}, fmt.Errorf("dist: width %d = %v must be finite and non-negative", i, w)
		}
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, SubsetVolumeStats{}, fmt.Errorf("dist: subset-volume threshold %v must be finite", t)
	}
	size := 1 << uint(n)
	if cap(scratch) < 3*size {
		scratch = make([]float64, 3*size)
	}
	sums, err := combin.SubsetSums(scratch[:size:size], widths)
	if err != nil {
		return nil, SubsetVolumeStats{}, err
	}
	vol := dst
	if cap(vol) < size {
		vol = make([]float64, size)
	}
	vol = vol[:size]
	if err := volumeLadder(sums, scratch[size:2*size], scratch[2*size:3*size], vol, n, t); err != nil {
		return nil, SubsetVolumeStats{}, err
	}
	// Per exponent: 2^n radix-power updates plus n·2^(n-1) zeta additions.
	u := uint64(size)
	return vol, SubsetVolumeStats{Subsets: u, Incremental: uint64(n)*u + uint64(n)*uint64(n)*u/2}, nil
}

// volumeLadder is the Proposition 2.2 table kernel behind
// AllSubsetVolumes. From the subset sums σ_I of the widths it runs the
// signed power ladder p[I] ← p[I]·(t−σ_I)/m, one zeta pass per exponent
// m, and reads off the |T| = m entries into vol, clamped below at 0. p and
// zeta are 2^n-entry scratch.
func volumeLadder(sums, p, zeta, vol []float64, n int, t float64) error {
	for mask := range p {
		p[mask] = 0
		if t-sums[mask] > 0 {
			p[mask] = 1
			if bits.OnesCount64(uint64(mask))%2 == 1 {
				p[mask] = -1
			}
		}
	}
	vol[0] = 0
	if t >= 0 {
		vol[0] = 1 // the empty box-simplex
	}
	for m := 1; m <= n; m++ {
		invM := 1 / float64(m)
		for mask := range p {
			v := p[mask] * (t - sums[mask]) * invM
			p[mask] = v
			zeta[mask] = v
		}
		if err := combin.SumOverSubsets(zeta, n); err != nil {
			return err
		}
		// Only the |T| = m entries are volumes at this exponent.
		if err := combin.ForEachKSubsetMask(n, m, func(mask uint64) bool {
			v := zeta[mask]
			if v < 0 {
				v = 0
			}
			vol[mask] = v
			return true
		}); err != nil {
			return err
		}
	}
	return nil
}

// RadixLadder is the rebuilt-base twin of volumeLadder, for
// inclusion-exclusion sums whose radix shifts with the exponent. For every
// exponent m = m0, …, len(t)−1 it fills the signed base table
//
//	base[J] = (−1)^{|J|} (t[m] − sub[J])_+^m / m!
//
// over all 2^n subsets J, runs one zeta pass and hands every |O| = m entry
// Σ_{J⊆O} base[J] to emit, in increasing mask order within one exponent.
// sub holds the caller's per-subset radix offsets and base is 2^n-entry
// scratch. Because t[m] − sub[J] changes with m, every exponent rebuilds
// all 2^n base cells before its n·2^(n-1) zeta additions. The caller
// passes as m0 the first exponent that needs a pass: the exponents
// 1, …, m0−1 build no base and run no zeta pass, and emit receives 0 for
// each of their entries (the sum of an all-zero base). It returns the work
// of the passes it ran: the 2^n subsets, and per pass 2^n rebuilt base
// cells and n·2^(n-1) zeta additions.
func RadixLadder(sub, t, base []float64, n, m0 int, emit func(mask uint64, v float64)) (SubsetVolumeStats, error) {
	size := uint64(1) << uint(n)
	stats := SubsetVolumeStats{Subsets: size}
	for m := 1; m < len(t); m++ {
		if m < m0 {
			if err := combin.ForEachKSubsetMask(n, m, func(mask uint64) bool {
				emit(mask, 0)
				return true
			}); err != nil {
				return stats, err
			}
			continue
		}
		f, err := combin.FactorialFloat(m)
		if err != nil {
			return stats, err
		}
		invFact, tm := 1/f, t[m]
		for mask := range base {
			r := tm - sub[mask]
			if r <= 0 {
				base[mask] = 0
				continue
			}
			v := invFact * combin.PowInt(r, m)
			if bits.OnesCount64(uint64(mask))%2 == 1 {
				v = -v
			}
			base[mask] = v
		}
		if err := combin.SumOverSubsets(base, n); err != nil {
			return stats, err
		}
		stats.Incremental += uint64(n) * size / 2
		stats.Rebuilt += size
		if err := combin.ForEachKSubsetMask(n, m, func(mask uint64) bool {
			emit(mask, base[mask])
			return true
		}); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// VolumeErrorBound is the forward-error kernel behind the exact
// evaluators' ExactErrorBound: ops compensated float64 operations on
// inclusion-exclusion terms no larger than M = max_m r^m/m! with
// r = max(t, n−t, 1), inflated by the worst-case range normalization
// min(piMin, 1)^−n. piMin is the smallest input range (1 for homogeneous
// inputs). It returns 32·ops·M·norm·2^−53, and 0 for n < 1.
func VolumeErrorBound(n int, t, piMin, ops float64) float64 {
	if n < 1 {
		return 0
	}
	r := math.Max(math.Max(t, float64(n)-t), 1)
	mag, term := 1.0, 1.0
	for m := 1; m <= n; m++ {
		term *= r / float64(m)
		mag = math.Max(mag, term)
	}
	norm := 1.0
	if piMin > 0 && piMin < 1 {
		norm = math.Pow(piMin, -float64(n))
	}
	return 32 * ops * mag * norm * 0x1p-53
}
