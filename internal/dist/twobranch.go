package dist

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/combin"
)

// TwoBranch is one player of the float subset-table kernel: with
// probability Mass0 its load is uniform on [0, Hi0] and enters bin 0, and
// with probability Mass1 it is uniform on [Lo1, Hi1] and enters bin 1.
// With inputs U[0, π], an oblivious player (Theorem 4.1) is
// {α, π, 1 − α, 0, π} and a threshold player (Theorem 5.1) is
// {c/π, c, (π − c)/π, c, π} with c = min(a, π). A branch whose interval
// is a point must carry no mass.
type TwoBranch struct {
	Mass0, Hi0      float64
	Mass1, Lo1, Hi1 float64
}

// TwoBranchKernel is the float twin of WinProbabilityRat for two-branch
// players. Writing S for the bin-1 set,
//
//	P = Σ_S ((W₀[Sᶜ]·W₁[S])·C₀[Sᶜ])·C₁[S],
//
// where W_b[T] is the product of the bin-b masses over T and C_b[T] the
// Lemma 2.4 CDF of the bin-b widths over T at δ minus their shifts
// (volume over box volume, clamped into [0, 1]). C₀ is one
// AllSubsetVolumes table at δ, which costs O(n²) per exponent instead of
// a zeta pass when every bin-0 width has the same bits (a shared
// threshold β below every π_i). When only the capable players (those
// whose bin-1 interval has width) share a bin-0 width, and z ≥ 1 point
// players remain (for threshold players: a shared β, and π_i ≤ β), C₀ is
// classVolumes' table: one volume per class (|T ∩ capable|, T ∩ points),
// O(n²·2^z) per exponent, scattered into the 2^n cells. Its bits are
// those of the zeta ladder over the capable-first order (the capable
// players first, then the points in the caller's order). C₁ takes the
// first strategy the load intervals allow, in this order:
//
//   - zero shifts and the bin-0 widths (oblivious players): C₁ is C₀;
//   - one shift β shared by every player whose bin-1 interval has width:
//     sharedBin1Table, one radixLadder pass per cardinality over the
//     2^(n−z) subsets of those players, z the point players (for
//     threshold players, π_i ≤ β), O(n²·2^(n−z)), scattered into the 2^n
//     cells;
//   - one right end h shared by those players (Theorem 5.1 on inputs
//     U[0, h], whatever the thresholds): the same table, with the Lemma
//     2.7 sum taken from the right end;
//   - otherwise walkBin1, the tailVolumeDFS walk of each set that can
//     carry mass (worst case Θ(3^n), heavily cut by its guards).
//
// The CDF tables depend only on the load intervals and δ, so Build decides
// what to rebuild: the same loads re-weight the two mass tables, and any
// other loads rebuild every table in place. A search or a sweep worker can
// keep one kernel for all of its evaluations, in any order. The zero
// value is an empty kernel.
type TwoBranchKernel struct {
	n        int
	capacity float64   // δ of the CDF tables
	whole    bool      // c0 and c1 are whole for the loads in cols at capacity
	slab     []float64 // the four 2^n-entry tables below, back to back
	w0, w1   []float64 // mass products over each subset
	c0, c1   []float64 // CDFs of each subset; c1 is c0 for oblivious players
	// The players' columns: the loads Hi0, Lo1, Hi1 and the bin-1 width,
	// then the masses Mass0 and Mass1.
	cols    []float64
	partial []float64 // pairSum's chunk totals
	stats   SubsetVolumeStats
}

// Build loads the players at capacity δ. When their load intervals and δ
// are bit-equal (math.Float64bits) to those of the last whole build, it
// keeps the CDF tables and rebuilds only the two mass tables, and Stats
// then reports no table work. Any other input rebuilds every table in
// place, each written whole, so the bits never depend on what the kernel
// held. It refuses more than combin.MaxSubsetTable players, a capacity
// that is not positive and finite, an interval that is not
// 0 ≤ Lo1 ≤ Hi1 < ∞ or 0 ≤ Hi0 < ∞, and a point branch with mass. A
// refused build writes no table, and neither it nor a build that fails
// part-way leaves tables to reuse. The kernel keeps one slab of four
// 2^n-entry tables, the bin-0 ladder's output and its three scratch
// tables, which then hold the other tables; it grows the slab only for
// more players than it has held.
func (k *TwoBranchKernel) Build(players []TwoBranch, capacity float64) error {
	if err := checkTwoBranch(players, capacity); err != nil {
		k.whole = false
		return err
	}
	if k.holds(players, capacity) {
		k.stats = SubsetVolumeStats{}
	} else if err := k.buildTables(players, capacity); err != nil {
		return err
	}
	return k.setMasses(players)
}

// checkTwoBranch is Build's refusal: the player cap, the capacity, the
// load intervals and massless point branches.
func checkTwoBranch(players []TwoBranch, capacity float64) error {
	if n := len(players); n > combin.MaxSubsetTable {
		return fmt.Errorf("dist: two-branch kernel limited to %d players, got %d", combin.MaxSubsetTable, n)
	}
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return fmt.Errorf("dist: capacity %v must be strictly positive and finite", capacity)
	}
	for i, p := range players {
		if !(p.Hi0 >= 0 && p.Lo1 >= 0 && p.Hi1 >= p.Lo1) || math.IsInf(p.Hi0, 1) || math.IsInf(p.Hi1, 1) {
			return fmt.Errorf("dist: player %d: load intervals [0, %v] and [%v, %v] invalid", i, p.Hi0, p.Lo1, p.Hi1)
		}
		if (p.Hi0 == 0 && p.Mass0 != 0) || (p.Hi1 == p.Lo1 && p.Mass1 != 0) {
			return fmt.Errorf("dist: player %d: a point load carries mass", i)
		}
	}
	return nil
}

// holds reports whether the tables are whole for the players' load
// intervals at capacity δ, comparing bits.
func (k *TwoBranchKernel) holds(players []TwoBranch, capacity float64) bool {
	n := len(players)
	if !k.whole || n != k.n || !sameBits(capacity, k.capacity) {
		return false
	}
	hi0, lo1, hi1 := k.cols[:n], k.cols[n:2*n], k.cols[2*n:3*n]
	for i, p := range players {
		if !sameBits(p.Hi0, hi0[i]) || !sameBits(p.Lo1, lo1[i]) || !sameBits(p.Hi1, hi1[i]) {
			return false
		}
	}
	return true
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// buildTables builds C₀ and C₁ for the players' load intervals at
// capacity δ and marks them whole only once both are written.
func (k *TwoBranchKernel) buildTables(players []TwoBranch, capacity float64) error {
	k.whole = false
	n := len(players)
	k.n, k.capacity = n, capacity
	k.cols = grow(k.cols, 6*n)
	hi0, lo1, hi1, width := k.cols[:n], k.cols[n:2*n], k.cols[2*n:3*n], k.cols[3*n:4*n]
	oblivious := true
	var point uint64 // players whose bin-1 interval is a point
	for i, p := range players {
		hi0[i], lo1[i], hi1[i], width[i] = p.Hi0, p.Lo1, p.Hi1, p.Hi1-p.Lo1
		if width[i] == 0 {
			point |= 1 << uint(i)
		}
		oblivious = oblivious && p.Lo1 == 0 && p.Hi1 == p.Hi0
	}
	size := 1 << uint(n)
	_, chunks := combin.ChunkSpan(uint64(size))
	k.partial = grow(k.partial, int(chunks))
	k.slab = grow(k.slab, 4*size)
	k.c0 = k.slab[:size:size]
	// scratch is the bin-0 ladder's, then the bin-1 tables': the widths'
	// subset sums, the ladder base or the shift sums, and C₁. The mass
	// tables then take the first two.
	scratch := k.slab[size : 4*size : 4*size]
	k.w0, k.w1 = scratch[:size:size], scratch[size:2*size:2*size]
	var err error
	if _, ok := sharedThreshold(hi0, point); ok && point != 0 {
		k.stats, err = classVolumes(k.c0, hi0, uint64(size-1)&^point, capacity, scratch)
	} else {
		_, k.stats, err = AllSubsetVolumes(k.c0, hi0, capacity, scratch)
	}
	if err != nil {
		return err
	}
	box, err := combin.SubsetProducts(scratch[:size], hi0)
	if err != nil {
		return err
	}
	for z, v := range k.c0 {
		k.c0[z] = cdfOf(v, box[z])
	}
	if oblivious {
		k.c1 = k.c0
		k.whole = true
		return nil
	}
	k.c1 = scratch[2*size:]
	// The bin-1 radix t_m of a shared shift or right end; the walk needs none.
	var radix [combin.MaxSubsetTable + 1]float64
	t, sign := radix[:0], 1.0
	capable := n - bits.OnesCount64(point)
	if beta, ok := sharedThreshold(lo1, point); ok {
		t = shiftRadix(t, capacity, beta, capable)
	} else if h, ok := sharedThreshold(hi1, point); ok {
		t, sign = endRadix(t, capacity, h, capable), -1
	}
	if len(t) > 0 {
		ladder, err := sharedBin1Table(k.c1, scratch[:2*size], width, point, t, sign)
		if err != nil {
			return err
		}
		k.stats = k.stats.Add(ladder)
	} else {
		wSums, err := combin.SubsetSums(scratch[:size], width)
		if err != nil {
			return err
		}
		if _, err := combin.SubsetProducts(k.c1, width); err != nil {
			return err
		}
		aSums, err := combin.SubsetSums(scratch[size:2*size], lo1)
		if err != nil {
			return err
		}
		k.stats.Rebuilt += walkBin1(k.c1, k.c0, wSums, aSums, width, point, capacity)
	}
	k.whole = true
	return nil
}

// grow returns s resliced to n entries, reallocated only when its capacity
// is short. The entries are not cleared.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// setMasses rebuilds the two mass tables from the players' masses, with
// no allocation.
func (k *TwoBranchKernel) setMasses(players []TwoBranch) error {
	n := k.n
	m0, m1 := k.cols[4*n:5*n], k.cols[5*n:]
	for i, p := range players {
		m0[i], m1[i] = p.Mass0, p.Mass1
	}
	if _, err := combin.SubsetProducts(k.w0, m0); err != nil {
		return err
	}
	_, err := combin.SubsetProducts(k.w1, m1)
	return err
}

// Sum returns the winning probability at the current masses, clamped into
// [0, 1].
func (k *TwoBranchKernel) Sum() float64 {
	return Clamp01(pairSum(k.w0, k.w1, k.c0, k.c1, k.partial))
}

// Tables returns the pair sum's four tables, indexed by the bin-0 or the
// bin-1 set: the mass products W₀ and W₁ and the CDFs C₀ and C₁ (c1 is c0
// for oblivious players). Theorem 5.1's N₀ and N₁ on U[0, 1] inputs are
// W₀·C₀ and W₁·C₁. They are the kernel's own: read them only, and only
// until the next Build.
func (k *TwoBranchKernel) Tables() (w0, w1, c0, c1 []float64) { return k.w0, k.w1, k.c0, k.c1 }

// Stats returns the work of the kernel's CDF tables.
func (k *TwoBranchKernel) Stats() SubsetVolumeStats { return k.stats }

// pairSum returns Σ_S ((w0[Sᶜ]·w1[S])·c0[Sᶜ])·c1[S] over the subsets S of
// a ground set of n elements, given four 2^n-entry tables. The masks run
// in increasing order through the fixed combin.ChunkSpan grid: each chunk
// is Neumaier-summed into partial, which must hold the grid's chunks, and
// combin.ReducePartials combines them. The grid and the reduction order
// depend only on n, so they fix the bits. A pair with w0[Sᶜ]·w1[S] = 0 is
// skipped, which gives the bits of adding its zero.
func pairSum(w0, w1, c0, c1, partial []float64) float64 {
	size := uint64(len(w0))
	full := size - 1
	span, chunks := combin.ChunkSpan(size)
	for c := uint64(0); c < chunks; c++ {
		var acc combin.Accumulator
		for s, hi := c*span, min((c+1)*span, size); s < hi; s++ {
			z := full &^ s
			w := w0[z] * w1[s]
			if w == 0 {
				continue
			}
			acc.Add(w * c0[z] * c1[s])
		}
		partial[c] = acc.Sum()
	}
	return combin.ReducePartials(partial[:chunks])
}

// Clamp01 clamps a probability computed in floating point into [0, 1].
func Clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// cdfOf is the Lemma 2.4 CDF of a set from its box-simplex volume and its
// box volume, clamped into [0, 1]. A box of volume 0 has a point branch,
// which carries no mass, and gets 0.
func cdfOf(vol, box float64) float64 {
	if box == 0 {
		return 0
	}
	return Clamp01(vol / box)
}

// sharedThreshold reports whether every player outside point (those whose
// bin-1 interval is a point) has the same value in xs, a bin-0 width or a
// bin-1 shift or right end, and returns it. Vacuously true when every
// player is in point.
func sharedThreshold(xs []float64, point uint64) (float64, bool) {
	x, seen := 0.0, false
	for i, v := range xs {
		if point&(1<<uint(i)) != 0 {
			continue
		}
		if seen && v != x {
			return 0, false
		}
		x, seen = v, true
	}
	return x, true
}

// shiftRadix appends to t, for m = 0, 1, …, the radix t_m = δ − (β + … +
// β), m β's summed in order, of the m-sets of players that share the
// shift β, while m ≤ c and t_m > 0: a larger set cannot fit. t_0 = δ is
// not read.
func shiftRadix(t []float64, capacity, beta float64, c int) []float64 {
	t = append(t, capacity)
	for aSum := beta; len(t) <= c && capacity-aSum > 0; aSum += beta {
		t = append(t, capacity-aSum)
	}
	return t
}

// endRadix appends to t the radix t_m = δ − m·h, m = 0, …, c, of the
// m-sets of players whose bin-1 intervals share the right end h. t_0 = δ
// is not read.
func endRadix(t []float64, capacity, h float64, c int) []float64 {
	for m := 0; m <= c; m++ {
		t = append(t, capacity-float64(m)*h)
	}
	return t
}

// sharedBin1Table writes into c1 (2^n entries) the bin-1 CDFs of the sets
// of a game whose capable players (those with bin-1 width) share a shift
// or a right end, from the radix t and the offsets' sign of bin1Ladder,
// and returns the work of the ladder passes it ran. A set holding a point
// player (in point, width 0) has box volume 0 and gets 0, so the table is
// built by bin1Ladder over the 2^c subsets of the c capable players alone
// and scattered into c1 in the increasing submask walk s ← (s − C) & C of
// their mask C. This keeps the bits of the ladder over all 2^n sets: a
// point-free set's zeta sum reads only its own subsets, whose sums,
// products and base cells take the same values in the same order, and the
// exponents that the reduced ladder's first exponent skips and the full
// one's does not give every point-free set its whole box, 1, in both.
// scratch holds at least 2·2^n entries, from which the capable widths'
// subset sums and products and the ladder's base are carved.
func sharedBin1Table(c1, scratch, widths []float64, point uint64, t []float64, sign float64) (SubsetVolumeStats, error) {
	var capable [combin.MaxSubsetTable]float64
	cw := capable[:0]
	for i, w := range widths {
		if point&(1<<uint(i)) == 0 {
			cw = append(cw, w)
		}
	}
	size := 1 << uint(len(cw))
	wSums, err := combin.SubsetSums(scratch[:size], cw)
	if err != nil {
		return SubsetVolumeStats{}, err
	}
	table := c1 // with no point player the table is c1 itself
	if size < len(c1) {
		table = scratch[size : 2*size]
	}
	if table, err = combin.SubsetProducts(table, cw); err != nil {
		return SubsetVolumeStats{}, err
	}
	stats, err := bin1Ladder(table, wSums, scratch[len(scratch)-size:], t, sign, len(cw))
	if err != nil || size == len(c1) {
		return stats, err
	}
	clear(c1)
	all := uint64(len(c1)-1) &^ point
	s := uint64(0)
	for _, v := range table {
		c1[s] = v
		s = (s - all) & all
	}
	return stats, nil
}

// bin1Ladder turns c1, which holds the products of the bin-1 widths on
// entry, into the bin-1 CDFs of the sets S of a game whose n players
// share a shift β (sign 1) or a right end h (sign −1). With m = |S|, the
// Lemma 2.7 volume of S is (1/m!) Σ_{I⊆S} (−1)^{|I|} (δ − σ_S lo −
// σ_I w)₊^m. For a shared shift the radix is t[m] − σ_I w with
// t[m] = δ − m·β. For a shared right end σ_S lo + σ_I w = m·h − σ_J w with
// J = S∖I, so the volume is
//
//	(−1)^m/m! Σ_{J⊆S} (−1)^{|J|} (t[m] + σ_J w)₊^m,  t[m] = δ − m·h.
//
// Either way the radix depends on S only through m, so one radixLadder
// pass per exponent gives every volume. Only cardinalities up to
// len(t) − 1 can carry mass. The ladder also ends at the last exponent
// mmax with a positive radix: past it the largest radix of every m-set,
// t[m] for a shift and t[m] + σ_S w for a right end (whose m smallest
// shifts then sum to δ or more), is not positive, so its base cells are
// all 0 and the pass would give it the sum's signed zero, (−1)^m·0 for a
// right end; each such set gets that zero without the pass. A set whose
// least radix is not negative (t[m] ≥ σ_S w for a shift, t[m] ≥ 0 for a
// right end) fits its whole box and gets exactly 1, and the ladder starts
// at the first exponent with a set that does not fit, because the earlier
// ones would be overwritten by 1. A set with a zero width has box volume
// 0 and keeps 0. wSums holds the widths' subset sums and base is
// 2^n-entry scratch.
func bin1Ladder(c1, wSums, base, t []float64, sign float64, n int) (SubsetVolumeStats, error) {
	fits := func(m int, w float64) bool { return t[m] >= max(sign*w, 0) }
	mmax := len(t) - 1 // shiftRadix keeps only the exponents with t[m] > 0
	if sign < 0 {
		var widest [combin.MaxSubsetTable + 1]float64 // the largest σ_S w per |S|
		for s, w := range wSums {
			m := bits.OnesCount64(uint64(s))
			widest[m] = max(widest[m], w)
		}
		for mmax > 0 && t[mmax]+widest[mmax] <= 0 {
			mmax--
		}
	}
	m0 := mmax + 1
	for s, w := range wSums {
		m := bits.OnesCount64(uint64(s))
		if m > mmax {
			if c1[s] != 0 {
				c1[s] = 0
				if sign < 0 && m%2 == 1 {
					c1[s] = math.Copysign(0, -1)
				}
			}
		} else if m < m0 && !fits(m, w) {
			m0 = m
		}
	}
	return radixLadder(wSums, sign, t[:mmax+1], base, n, m0, func(s uint64, v float64) {
		m := bits.OnesCount64(s)
		switch {
		case c1[s] == 0: // a zero width
		case fits(m, wSums[s]):
			c1[s] = 1
		default:
			if sign < 0 && m%2 == 1 {
				v = -v
			}
			c1[s] = Clamp01(v / c1[s])
		}
	})
}

// walkBin1 turns c1, which holds the products of the bin-1 widths on
// entry, into the bin-1 CDFs at threshold δ − Σ_{i∈S} shift_i (aSums) of
// the sets S that can carry mass: no point player, and a complement whose
// bin-0 CDF in c0 is positive. The others get 0 (the empty set keeps 1).
// Each such set whose box does not fit under its threshold runs the
// tailVolumeDFS walk over its widths in ascending order. It returns the
// number of terms evaluated, counting one for each set that fits whole.
func walkBin1(c1, c0, wSums, aSums, widths []float64, point uint64, capacity float64) uint64 {
	var invFact [combin.MaxSubsetTable + 1]float64
	f := 1.0
	for m := range len(widths) + 1 {
		f *= float64(max(m, 1))
		invFact[m] = 1 / f
	}
	// Ascending widths, so the first sibling whose width no longer fits
	// under the remainder prunes the rest.
	var byWidth [combin.MaxSubsetTable]int
	order := byWidth[:0]
	for i := range widths {
		if point&(1<<uint(i)) == 0 {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(x, y int) int { return cmp.Compare(widths[x], widths[y]) })
	full := uint64(len(c1)) - 1
	var set [combin.MaxSubsetTable]float64
	ws := set[:0]
	var steps uint64
	for s := uint64(1); s <= full; s++ {
		r := capacity - aSums[s]
		switch {
		case s&point != 0 || c0[full&^s] <= 0 || r <= 0:
			c1[s] = 0
		case r >= wSums[s]:
			c1[s] = 1 // the whole residual box fits
			steps++
		default:
			ws = ws[:0]
			for _, i := range order {
				if s&(1<<uint(i)) != 0 {
					ws = append(ws, widths[i])
				}
			}
			m := bits.OnesCount64(s)
			v, st := tailVolumeDFS(ws, r, m, invFact[m])
			steps += st
			c1[s] = cdfOf(v, c1[s])
		}
	}
	return steps
}

// tailVolumeDFS evaluates the Proposition 2.2 volume
// (1/m!) Σ_{J ⊆ ws} (−1)^{|J|} (t − Σ_J w)_+^m by depth-first subset
// enumeration over the ascending widths ws, visiting only subsets with
// positive remainder: widths are positive and sorted, so once a partial
// sum reaches t the current branch and all later siblings are dead. Plain
// (uncompensated) summation — the evaluators' ExactErrorBound budget
// dwarfs the Θ(2^m) rounding worst case. It returns the volume and the
// number of terms evaluated.
func tailVolumeDFS(ws []float64, t float64, m int, invFact float64) (float64, uint64) {
	var acc float64
	var steps uint64
	var walk func(start int, sum, sign float64)
	walk = func(start int, sum, sign float64) {
		steps++
		acc += sign * combin.PowInt(t-sum, m)
		for j := start; j < len(ws); j++ {
			next := sum + ws[j]
			if next >= t {
				return
			}
			walk(j+1, next, -sign)
		}
	}
	walk(0, 0, 1)
	return acc * invFact, steps
}
