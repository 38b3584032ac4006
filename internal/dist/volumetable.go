package dist

import (
	"fmt"
	"math/bits"

	"repro/internal/combin"
)

// DeltaStats counts the work a VolumeTable's delta updates performed.
type DeltaStats struct {
	// Updates is the number of SetCoord calls that re-propagated the
	// table.
	Updates uint64
	// Subsets is the number of subset cells re-propagated across those
	// updates (2^(n-1) per update — only the subsets containing the
	// changed coordinate).
	Subsets uint64
}

// VolumeTable is a reusable AllSubsetVolumes: it owns every table the
// computation needs, so Build reuses the allocated storage across calls
// (zero steady-state allocations) and SetCoord re-propagates only the
// 2^(n-1) subsets containing the changed coordinate instead of rebuilding
// all n·2^n cells.
//
// Build is bit-identical to AllSubsetVolumes (same operations in the same
// order). SetCoord tracks a fresh rebuild within the evaluators'
// ExactErrorBound rather than bit-exactly: the subset sums are
// re-propagated with the exact build recurrence (so they never drift),
// but the per-exponent volume contributions are applied as additive
// corrections
//
//	Δ vol[T] = Σ_{I ⊆ T, I ∋ i} (p_new[I] − p_old[I]),   T ∋ i,
//
// computed by two signed power ladders over the compressed 2^(n-1)-subset
// lattice of the other n-1 coordinates followed by one sum-over-subsets
// (zeta) pass restricted to that lattice — O(n·2^(n-1)) per update against
// O(n²·2^n) for a rebuild — which rounds each touched cell once per
// update.
type VolumeTable struct {
	n      int
	t      float64
	built  bool
	widths []float64
	sums   *combin.SumTable // subset sums of widths
	p      []float64        // signed power ladder, build scratch
	zeta   []float64        // zeta-pass scratch
	raw    []float64        // unclamped per-cardinality readoffs
	vol    []float64        // clamped volumes

	// SetCoord scratch over the compressed (n-1)-bit lattice, allocated
	// by the first SetCoord.
	ro, rn, lo, ln, d []float64

	stats DeltaStats
}

// NewVolumeTable allocates a volume table for n coordinates.
func NewVolumeTable(n int) (*VolumeTable, error) {
	if n < 1 || n > combin.MaxSubsetTable {
		return nil, fmt.Errorf("dist: volume table dimension %d out of range [1, %d]", n, combin.MaxSubsetTable)
	}
	sums, err := combin.NewSumTable(n)
	if err != nil {
		return nil, err
	}
	size := uint64(1) << uint(n)
	return &VolumeTable{
		n:      n,
		widths: make([]float64, n),
		sums:   sums,
		p:      make([]float64, size),
		zeta:   make([]float64, size),
		raw:    make([]float64, size),
		vol:    make([]float64, size),
	}, nil
}

// N returns the table's dimension.
func (v *VolumeTable) N() int { return v.n }

// Threshold returns the shared threshold t of the last Build.
func (v *VolumeTable) Threshold() float64 { return v.t }

// Vol returns the clamped volume table, indexed by subset mask. The slice
// is owned by the table and rewritten by Build and SetCoord; callers must
// not modify it.
func (v *VolumeTable) Vol() []float64 { return v.vol }

// Widths returns the current width vector. The slice is owned by the
// table; callers must not modify it.
func (v *VolumeTable) Widths() []float64 { return v.widths }

// Sums returns the subset sums of the current widths, indexed by subset
// mask — the combin.SumTable the volumes are built from, bit-identical to
// combin.SubsetSums(nil, Widths()) after Build and after every SetCoord. The
// slice is owned by the table; callers must not modify it.
func (v *VolumeTable) Sums() []float64 { return v.sums.Values() }

// Stats returns the delta-update counters accumulated since New.
func (v *VolumeTable) Stats() DeltaStats { return v.stats }

// Build fills the table for (widths, t), reusing the allocated storage.
// The volumes are bit-identical to AllSubsetVolumes(widths, t, nil): same
// validation, same subset-sum recurrence, same volume kernel.
func (v *VolumeTable) Build(widths []float64, t float64) error {
	if len(widths) != v.n {
		return fmt.Errorf("dist: volume table built for %d coordinates, got %d", v.n, len(widths))
	}
	if err := checkVolumeInput(widths, t); err != nil {
		return err
	}
	copy(v.widths, widths)
	v.t = t
	if err := v.sums.Build(widths); err != nil {
		return err
	}
	if err := volumeLadder(v.sums.Values(), v.p, v.zeta, v.raw, v.vol, v.n, t); err != nil {
		return err
	}
	v.built = true
	return nil
}

// SetCoord changes width i to w and re-propagates the 2^(n-1) subsets
// containing i: the subset sums are recomputed with the exact build
// recurrence, and each touched volume receives the zeta-summed
// difference of its signed base terms under the old and new radix. The
// updated table agrees with a fresh Build within the evaluators'
// ExactErrorBound (property-tested along random coordinate walks). Cost is
// O(n·2^(n-1)) against O(n²·2^n) for a rebuild.
func (v *VolumeTable) SetCoord(i int, w float64) error {
	if !v.built {
		return fmt.Errorf("dist: volume table used before Build")
	}
	if i < 0 || i >= v.n {
		return fmt.Errorf("dist: volume table coordinate %d out of range [0, %d)", i, v.n)
	}
	if err := checkWidth(i, w); err != nil {
		return err
	}
	if w == v.widths[i] {
		return nil
	}
	bit := uint64(1) << uint(i)
	lowMask := bit - 1
	half := uint64(1) << uint(v.n-1)
	if v.d == nil {
		v.ro = make([]float64, half)
		v.rn = make([]float64, half)
		v.lo = make([]float64, half)
		v.ln = make([]float64, half)
		v.d = make([]float64, half)
	}
	// Old radix t − σ of every subset containing i, gathered onto the
	// compressed lattice of the other n-1 coordinates.
	sums := v.sums.Values()
	for j := uint64(0); j < half; j++ {
		full := (j & lowMask) | (j&^lowMask)<<1 | bit
		v.ro[j] = v.t - sums[full]
	}
	// Exact state update: SumTable.SetCoord re-propagates the sums
	// bit-identically to a fresh build; then gather the new radix.
	v.widths[i] = w
	if err := v.sums.SetCoord(i, w); err != nil {
		return err
	}
	for j := uint64(0); j < half; j++ {
		full := (j & lowMask) | (j&^lowMask)<<1 | bit
		v.rn[j] = v.t - sums[full]
	}
	// Signed power ladders for the old and new base terms of the subsets
	// I = J ∪ {i}: sign (−1)^(|J|+1), power m of the radix, mirroring the
	// Build ladder update p ← p·radix/m.
	for j := uint64(0); j < half; j++ {
		var sign float64
		if bits.OnesCount64(j)%2 == 0 {
			sign = -1 // |J ∪ {i}| odd
		} else {
			sign = 1
		}
		if v.ro[j] > 0 {
			v.lo[j] = sign
		} else {
			v.lo[j] = 0
		}
		if v.rn[j] > 0 {
			v.ln[j] = sign
		} else {
			v.ln[j] = 0
		}
	}
	for m := 1; m <= v.n; m++ {
		invM := 1 / float64(m)
		for j := uint64(0); j < half; j++ {
			v.lo[j] *= v.ro[j] * invM
			v.ln[j] *= v.rn[j] * invM
			v.d[j] = v.ln[j] - v.lo[j]
		}
		// Zeta pass restricted to the changed coordinate: summing d over
		// the compressed lattice accumulates Σ_{I⊆T, I∋i} Δp[I] for every
		// T ∋ i at once.
		if err := combin.SumOverSubsets(v.d, v.n-1); err != nil {
			return err
		}
		for j := uint64(0); j < half; j++ {
			if bits.OnesCount64(j) != m-1 {
				continue
			}
			full := (j & lowMask) | (j&^lowMask)<<1 | bit
			nr := v.raw[full] + v.d[j]
			v.raw[full] = nr
			if nr < 0 {
				nr = 0
			}
			v.vol[full] = nr
		}
	}
	v.stats.Updates++
	v.stats.Subsets += half
	return nil
}
