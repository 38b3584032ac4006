package dist

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/combin"
	"repro/internal/obs"
)

// SubsetVolumeStats counts the work of subset-table builds
// (AllSubsetVolumes, radixLadder), for the exact backend's observability
// counters.
type SubsetVolumeStats struct {
	// Subsets is the number of subset cells produced (2^n).
	Subsets uint64
	// Incremental is the number of O(1) incremental state updates: the
	// per-exponent radix-power updates plus the sum-over-subsets pair
	// additions. For equal widths (cardinalityLadder) they are, per
	// exponent m, the n+1 ladder cells, one per cardinality, plus the
	// m(m+1)/2 additions of the V recurrence.
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
// When every width has the same bits, every k-set has the same subset
// sum, base cells and zeta expression tree, so the volume of each
// cardinality is computed once, by cardinalityLadder in O(n²) per
// exponent, and written to every cell of that cardinality with the bits of
// the zeta ladder.
//
// The volumes are written to dst when it has room for their 2^n entries,
// and to a new slice otherwise (as combin.SubsetSums does). The zeta
// ladder needs three more 2^n-entry tables as scratch: they are carved
// from scratch when its capacity holds them (3·2^n entries), and allocated
// otherwise; the equal-width ladder needs none. They hold nothing the
// volumes need afterwards, so a caller can reuse them for its own tables
// once the call returns.
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
	vol := dst
	if cap(vol) < size {
		vol = make([]float64, size)
	}
	vol = vol[:size]
	u := uint64(size)
	if equalWidths(widths) {
		cardinalityLadder(vol, n, widths[0], t)
		// Per exponent: n+1 ladder cells and m(m+1)/2 recurrence additions.
		nn := uint64(n)
		return vol, SubsetVolumeStats{Subsets: u, Incremental: nn*(nn+1) + nn*(nn+1)*(nn+2)/6}, nil
	}
	if cap(scratch) < 3*size {
		scratch = make([]float64, 3*size)
	}
	sums, err := combin.SubsetSums(scratch[:size:size], widths)
	if err != nil {
		return nil, SubsetVolumeStats{}, err
	}
	if err := volumeLadder(sums, scratch[size:2*size], scratch[2*size:3*size], vol, n, t); err != nil {
		return nil, SubsetVolumeStats{}, err
	}
	// Per exponent: 2^n radix-power updates plus n·2^(n-1) zeta additions.
	return vol, SubsetVolumeStats{Subsets: u, Incremental: uint64(n)*u + uint64(n)*uint64(n)*u/2}, nil
}

// volumeLadder is the Proposition 2.2 table kernel behind
// AllSubsetVolumes. From the subset sums σ_I of the widths it runs the
// signed power ladder p[I] ← p[I]·(t−σ_I)/m, one zeta pass per exponent
// m, and reads off the |T| = m entries into vol, clamped below at 0. p and
// zeta are 2^n-entry scratch. From n = 3 on, ladderFill writes each
// exponent's zeta table once, with the ladder step and the pass's bits 0–2
// fused, and combin.ZetaAboveOctets finishes the pass: the bits of a copy
// followed by combin.SumOverSubsets.
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
	size := uint64(len(p))
	for m := 1; m <= n; m++ {
		invM := 1 / float64(m)
		if n >= 3 {
			ladderFill(p, zeta, sums, t, invM)
			if err := combin.ZetaAboveOctets(zeta, n); err != nil {
				return err
			}
		} else {
			for mask := range p {
				v := p[mask] * (t - sums[mask]) * invM
				p[mask] = v
				zeta[mask] = v
			}
			if err := combin.SumOverSubsets(zeta, n); err != nil {
				return err
			}
		}
		// Only the |T| = m entries are volumes at this exponent.
		for mask := uint64(1)<<uint(m) - 1; mask < size; mask = combin.NextKSubsetMask(mask) {
			v := zeta[mask]
			if v < 0 {
				v = 0
			}
			vol[mask] = v
		}
	}
	return nil
}

// ladderFill is one exponent of volumeLadder's table fill: on every
// aligned 8-cell it takes the ladder step p[I] ← p[I]·(t−σ_I)·invM, stores
// it, and writes to zeta the cells after bits 0, 1 and 2 of the zeta
// pass, added in registers in the order of combin.SumOverSubsets.
func ladderFill(p, zeta, sums []float64, t, invM float64) {
	for i := 0; i+8 <= len(p); i += 8 {
		x, s, z := (*[8]float64)(p[i:]), (*[8]float64)(sums[i:]), (*[8]float64)(zeta[i:])
		v0 := x[0] * (t - s[0]) * invM
		v1 := x[1] * (t - s[1]) * invM
		v2 := x[2] * (t - s[2]) * invM
		v3 := x[3] * (t - s[3]) * invM
		v4 := x[4] * (t - s[4]) * invM
		v5 := x[5] * (t - s[5]) * invM
		v6 := x[6] * (t - s[6]) * invM
		v7 := x[7] * (t - s[7]) * invM
		x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7] = v0, v1, v2, v3, v4, v5, v6, v7
		v1 += v0
		v3 += v2
		v5 += v4
		v7 += v6
		v2 += v0
		v3 += v1
		v6 += v4
		v7 += v5
		v4 += v0
		v5 += v1
		v6 += v2
		v7 += v3
		z[0], z[1], z[2], z[3], z[4], z[5], z[6], z[7] = v0, v1, v2, v3, v4, v5, v6, v7
	}
}

// equalWidths reports whether there is at least one width and all have
// the same bits.
func equalWidths(widths []float64) bool {
	for _, w := range widths {
		if math.Float64bits(w) != math.Float64bits(widths[0]) {
			return false
		}
	}
	return len(widths) > 0
}

// cardinalityLadder is volumeLadder for n widths that all equal w, with
// the same bits. combin.SubsetSums adds the widths of a k-set one after
// another, so its sum is the same float s_k for every k-set, and so are
// its ladder cells g_m(k). The zeta pass adds a set's cells bit by bit in
// ascending order, so the expression tree of an m-set's sum is the same
// for every m-set: after its lowest i bits, a cell that holds those i
// bits and r of its other ones holds V_i(r), where V_0(r) = g_m(r) and
// V_i(r) = V_{i−1}(r+1) + V_{i−1}(r) (the bit-set cell plus its bit-clear
// partner), and the volume of every m-set is V_m(0), clamped below at 0.
// Each exponent costs n+1 ladder cells and m(m+1)/2 additions; vol then
// takes each cell's volume by its popcount.
func cardinalityLadder(vol []float64, n int, w, t float64) {
	var sum, g, v, out [combin.MaxSubsetTable + 1]float64
	for k := 1; k <= n; k++ {
		sum[k] = sum[k-1] + w
	}
	for k := 0; k <= n; k++ {
		if t-sum[k] > 0 {
			g[k] = 1
			if k%2 == 1 {
				g[k] = -1
			}
		}
	}
	if t >= 0 {
		out[0] = 1 // the empty box-simplex
	}
	for m := 1; m <= n; m++ {
		invM := 1 / float64(m)
		for k := 0; k <= n; k++ {
			g[k] = g[k] * (t - sum[k]) * invM
		}
		copy(v[:m+1], g[:m+1])
		for i := 1; i <= m; i++ {
			for r := 0; r <= m-i; r++ {
				v[r] = v[r+1] + v[r]
			}
		}
		if out[m] = v[0]; out[m] < 0 {
			out[m] = 0
		}
	}
	for mask := range vol {
		vol[mask] = out[bits.OnesCount64(uint64(mask))]
	}
}

// radixLadder is the rebuilt-base twin of volumeLadder, for
// inclusion-exclusion sums whose radix shifts with the exponent. For every
// exponent m = m0, …, len(t)−1 it fills the signed base table
//
//	base[J] = (−1)^{|J|} (t[m] − sign·sub[J])_+^m / m!
//
// over all 2^n subsets J, runs one zeta pass and hands every |O| = m entry
// Σ_{J⊆O} base[J] to emit, in increasing mask order within one exponent.
// sub holds the caller's per-subset radix offsets, sign (1 or −1) says
// whether they are subtracted or added, and base is 2^n-entry scratch.
// Because t[m] − sign·sub[J] changes with m, every exponent rebuilds all
// 2^n base cells before its n·2^(n-1) zeta additions. A cell with
// |J| > m is set to 0 without its power: only sums over sets larger than
// m read it, and none of them is emitted, so the emitted bits are those
// of the full base. The caller
// passes as m0 the first exponent that needs a pass: the exponents
// 1, …, m0−1 build no base and run no zeta pass, and emit receives 0 for
// each of their entries (the sum of an all-zero base). It returns the work
// of the passes it ran: the 2^n subsets, and per pass 2^n rebuilt base
// cells and n·2^(n-1) zeta additions.
func radixLadder(sub []float64, sign float64, t, base []float64, n, m0 int, emit func(mask uint64, v float64)) (SubsetVolumeStats, error) {
	size := uint64(1) << uint(n)
	stats := SubsetVolumeStats{Subsets: size}
	for m := 1; m < len(t); m++ {
		first := uint64(1)<<uint(m) - 1
		if m < m0 {
			for mask := first; mask < size; mask = combin.NextKSubsetMask(mask) {
				emit(mask, 0)
			}
			continue
		}
		f, err := combin.FactorialFloat(m)
		if err != nil {
			return stats, err
		}
		invFact, tm := 1/f, t[m]
		for mask := range base {
			// No |O| = m sum reads a cell with |J| > m.
			c := bits.OnesCount64(uint64(mask))
			r := tm - sign*sub[mask]
			if c > m || r <= 0 {
				base[mask] = 0
				continue
			}
			v := invFact * combin.PowInt(r, m)
			if c%2 == 1 {
				v = -v
			}
			base[mask] = v
		}
		if err := combin.SumOverSubsets(base, n); err != nil {
			return stats, err
		}
		stats.Incremental += uint64(n) * size / 2
		stats.Rebuilt += size
		for mask := first; mask < size; mask = combin.NextKSubsetMask(mask) {
			emit(mask, base[mask])
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
