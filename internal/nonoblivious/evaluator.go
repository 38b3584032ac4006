package nonoblivious

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/combin"
	"repro/internal/dist"
	"repro/internal/problem"
)

// MaxNProfile bounds the player count for the evaluator's single-coordinate
// line-profile fast path, which materializes two n·2^(n-1)-entry
// cardinality-indexed superset-sum tables (8 MiB at n = 16) on the first
// probe. Beyond it, single-coordinate probes are full rebuilds.
const MaxNProfile = 16

// EvalStats counts the work an Evaluator performed since construction.
type EvalStats struct {
	// Evaluations is the total number of Evaluate/SetCoord/EvaluateVector
	// calls that produced a value.
	Evaluations uint64
	// FullRebuilds counts full O(n²·2^n) table rebuilds.
	FullRebuilds uint64
	// DeltaUpdates counts single-coordinate probes served by the line
	// profile instead of a rebuild.
	DeltaUpdates uint64
	// DeltaSubsets is the number of subset terms those probes covered
	// (2^(n-1) each — the subsets of the frozen coordinates).
	DeltaSubsets uint64
	// Table is the work of the last full rebuild's N₀ and N₁ tables.
	Table dist.SubsetVolumeStats
}

// Evaluator is a reusable Theorem 5.1 evaluator for homogeneous-input
// threshold vectors: it allocates the N₀ subset-volume and N₁ bin-1 tail
// tables once and then supports
//
//   - Evaluate: a full evaluation reusing the allocated tables — the one
//     float Theorem 5.1 kernel (WinningProbability is a one-shot
//     Evaluator), zero steady-state allocations;
//
//   - SetCoord(i, a_i): set one threshold and rebuild;
//
//   - EvaluateVector: the optimizer's probe entry, which diffs the probe
//     against the committed thresholds. For n ≤ MaxNProfile a
//     single-coordinate probe evaluates through a line profile: with
//     every other threshold frozen, P(a) as a function of a_i alone
//     collapses (see DESIGN S26) to
//
//     P(v) = T(δ) − T(δ−v) + (1−v)·K₁ − V(1) + V(v)
//
// where T and V are 2^(n-1)-term inclusion-exclusion sums whose
// cardinality-aggregated coefficient tables depend only on the frozen
// coordinates. Splitting each into the part whose clamped radix keeps one
// sign over v ∈ [0, 1] (pre-expanded into one degree-≤n polynomial) and
// the at-most-one crossing term per subset (evaluated per probe) makes a
// probe O(2^(n-1)) — the polynomial Horner pass is O(n) and the crossing
// corrections dominate — against O(n²·2^n) for a rebuild.
//
// Every committed value — Evaluate, SetCoord and every EvaluateVector
// call but a profile probe — is a full rebuild, bit-identical to
// WinningProbability. Profile probes commit nothing and agree with a
// rebuild within ExactErrorBound (property-tested along random lines), so
// search loops probe through the evaluator and re-evaluate only the final
// optimum canonically.
type Evaluator struct {
	n        int
	capacity float64
	built    bool
	a        []float64 // committed thresholds
	value    float64   // P at the committed thresholds

	vol []float64 // N₀: box-simplex volumes at threshold δ
	n1  []float64 // N₁: clamped Lemma 2.7 tails
	// Rebuild scratch, three 2^n tables: the N₀ ladder's, then
	// |J| − σ_J a, Π_{i∈J}(1−a_i) and the N₁ ladder's base, and last the
	// pair sum's all-ones table.
	scratch  []float64
	oneMinus []float64
	shift    []float64 // per-exponent radix shift m − δ (fixed)
	bin1From int       // first exponent whose radix can be positive
	partial  []float64 // pair-sum partials (fixed grid)

	invFact []float64 // 1/m!
	invInt  []float64 // 1/m
	binom   []float64 // C(m, t), stride n+2

	prof  lineProfile
	stats EvalStats
}

// lineProfile is the single-coordinate probe state: everything about
// P(a_1, …, v, …, a_n) as a function of v alone that does not depend on v.
type lineProfile struct {
	coord               int // profiled coordinate, -1 when closed
	aR, omR             []float64
	sumsR, signR, prodR []float64 // compressed (n-1)-bit lattice
	m, p                []float64 // M^c / P^c superset sums, strided [J·n + c]
	tCoef, vCoef        []float64 // always-signed parts as polynomials in v
	crossT              []int32   // T-subsets whose radix changes sign on [0, 1]
	ntx                 int
	vxRho, vxW          []float64 // V crossing terms: radix offset, weight
	vxE                 []int32   // V crossing exponents
	nvx                 int
	k1, tAt0, vAt1      float64
}

// NewEvaluator allocates an evaluator for n players at capacity δ. The
// full-evaluation tables are allocated here and reused by every
// evaluation; the line-profile tables are allocated by the first profile
// probe.
func NewEvaluator(n int, capacity float64) (*Evaluator, error) {
	if err := checkGeneral(n, capacity); err != nil {
		return nil, err
	}
	size := 1 << uint(n)
	ev := &Evaluator{
		n:        n,
		capacity: capacity,
		a:        make([]float64, n),
		vol:      make([]float64, size),
		n1:       make([]float64, size),
		scratch:  make([]float64, 3*size),
		oneMinus: make([]float64, n),
		shift:    make([]float64, n+1),
		invFact:  make([]float64, n+2),
		invInt:   make([]float64, n+2),
		binom:    make([]float64, (n+2)*(n+2)),
	}
	_, chunks := combin.ChunkSpan(uint64(size))
	ev.partial = make([]float64, chunks)
	ev.bin1From = n + 1
	for m := n; m >= 0; m-- {
		ev.shift[m] = float64(m) - capacity
		if m >= 1 && ev.shift[m] > 0 {
			ev.bin1From = m
		}
	}
	for m := 0; m <= n+1; m++ {
		f, ferr := combin.FactorialFloat(m)
		if ferr != nil {
			return nil, ferr
		}
		ev.invFact[m] = 1 / f
		if m > 0 {
			ev.invInt[m] = 1 / float64(m)
		}
		for t := 0; t <= m; t++ {
			b, berr := combin.BinomialFloat(m, t)
			if berr != nil {
				return nil, berr
			}
			ev.binom[m*(n+2)+t] = b
		}
	}
	ev.prof.coord = -1
	return ev, nil
}

// checkGeneral validates the player count and capacity of a general
// (per-player threshold) evaluation.
func checkGeneral(n int, capacity float64) error {
	if n < 2 {
		return fmt.Errorf("nonoblivious: need at least 2 players, got %d", n)
	}
	if n > MaxNGeneral {
		return problem.PlayerCapError("nonoblivious: general evaluation limited to %d players, got %d", MaxNGeneral, n)
	}
	return validateCapacity(capacity)
}

// checkThresholds validates that every threshold lies in [0, 1].
func checkThresholds(thresholds []float64) error {
	for i, a := range thresholds {
		if err := checkThreshold(i, a); err != nil {
			return err
		}
	}
	return nil
}

func checkThreshold(i int, a float64) error {
	if math.IsNaN(a) || a < 0 || a > 1 {
		return fmt.Errorf("nonoblivious: threshold[%d] = %v outside [0, 1]", i, a)
	}
	return nil
}

// N returns the player count.
func (ev *Evaluator) N() int { return ev.n }

// Capacity returns the bin capacity δ.
func (ev *Evaluator) Capacity() float64 { return ev.capacity }

// Thresholds returns the committed threshold vector. The slice is owned by
// the evaluator; callers must not modify it.
func (ev *Evaluator) Thresholds() []float64 { return ev.a }

// Value returns the winning probability at the committed thresholds. Only
// meaningful after a successful evaluation.
func (ev *Evaluator) Value() float64 { return ev.value }

// Stats returns the work counters accumulated since construction.
func (ev *Evaluator) Stats() EvalStats { return ev.stats }

func (ev *Evaluator) validate(thresholds []float64) error {
	if len(thresholds) != ev.n {
		return fmt.Errorf("nonoblivious: evaluator built for %d players, got %d thresholds", ev.n, len(thresholds))
	}
	return checkThresholds(thresholds)
}

// Evaluate computes the winning probability of the threshold vector with a
// full table rebuild that reuses the allocated storage — zero steady-state
// allocations, the same bits as WinningProbability — and commits the
// vector as the evaluator's new state.
func (ev *Evaluator) Evaluate(thresholds []float64) (float64, error) {
	if err := ev.validate(thresholds); err != nil {
		return 0, err
	}
	return ev.evaluateFull(thresholds)
}

func (ev *Evaluator) evaluateFull(thresholds []float64) (float64, error) {
	_, n0, err := dist.AllSubsetVolumes(ev.vol, thresholds, ev.capacity, ev.scratch)
	if err != nil {
		return 0, err
	}
	copy(ev.a, thresholds)
	size := len(ev.vol)
	gap, err := combin.SubsetSums(ev.scratch[:size:size], ev.a)
	if err != nil {
		return 0, err
	}
	for mask := range gap {
		gap[mask] = float64(bits.OnesCount64(uint64(mask))) - gap[mask]
	}
	for i, a := range ev.a {
		ev.oneMinus[i] = 1 - a
	}
	prod, err := combin.SubsetProducts(ev.scratch[size:2*size:2*size], ev.oneMinus)
	if err != nil {
		return 0, err
	}
	n1, err := ev.bin1Passes(gap, prod, ev.scratch[2*size:])
	if err != nil {
		return 0, err
	}
	// Theorem 5.1 is Σ_s N₀[full∖s]·N₁[s]: the kernel's pair sum with N₀
	// and N₁ as the weights and all-ones CDF tables, an exact ×1.
	ones := ev.scratch[:size]
	for mask := range ones {
		ones[mask] = 1
	}
	ev.value = dist.Clamp01(dist.PairSum(ev.vol, ev.n1, ones, ones, ev.partial))
	ev.built = true
	ev.prof.coord = -1
	ev.stats.Table = n0.Add(n1)
	ev.stats.FullRebuilds++
	ev.stats.Evaluations++
	return ev.value, nil
}

// SetCoord commits threshold i to v and rebuilds, returning the updated
// winning probability — the bits of WinningProbability.
func (ev *Evaluator) SetCoord(i int, v float64) (float64, error) {
	if !ev.built {
		return 0, fmt.Errorf("nonoblivious: evaluator SetCoord before any full evaluation")
	}
	if i < 0 || i >= ev.n {
		return 0, fmt.Errorf("nonoblivious: evaluator coordinate %d out of range [0, %d)", i, ev.n)
	}
	if err := checkThreshold(i, v); err != nil {
		return 0, err
	}
	ev.a[i] = v
	return ev.evaluateFull(ev.a)
}

// EvaluateVector evaluates an arbitrary threshold vector by diffing it
// against the committed state: an unchanged vector returns the committed
// value, a single-coordinate change evaluates through the line profile
// when n ≤ MaxNProfile, and anything else is a full rebuild that commits
// the vector. Line-profile probes do NOT commit: the committed state keeps
// pointing at the last committed vector.
func (ev *Evaluator) EvaluateVector(x []float64) (float64, error) {
	if err := ev.validate(x); err != nil {
		return 0, err
	}
	if !ev.built {
		return ev.evaluateFull(x)
	}
	d, diffs := -1, 0
	for i := range x {
		if x[i] != ev.a[i] {
			diffs++
			d = i
		}
	}
	switch {
	case diffs == 0:
		ev.stats.Evaluations++
		return ev.value, nil
	case diffs == 1 && ev.n <= MaxNProfile:
		if ev.prof.coord != d {
			ev.openProfile(d)
		}
		ev.stats.DeltaUpdates++
		ev.stats.DeltaSubsets += uint64(1) << uint(ev.n-1)
		ev.stats.Evaluations++
		return ev.profEval(x[d]), nil
	default:
		return ev.evaluateFull(x)
	}
}

// bin1Passes rebuilds N₁[O] = P(x_i > a_i ∀i∈O ∧ Σ_O x ≤ δ) for every
// subset O from the current subset-sum/product state — the Lemma 2.7 tail
//
//	Π_{i∈O}(1-a_i) − (1/m!) Σ_{J⊆O} (−1)^{|J|} (m − δ − |J| + σ_J a)_+^m
//
// with m = |O|. The base term depends on J only through |J| and σ_J a, so
// for each exponent m one signed base table over all J feeds a single
// sum-over-subsets pass that yields every |O| = m entry at once: the
// dist.RadixLadder kernel with radix (m − δ) − (|J| − σ_J a). Unlike the
// N₀ radix, this radix shifts with m, so each exponent's base is rebuilt
// from the |J| − σ_J a table rather than updated incrementally. Thresholds
// lie in [0, 1], so |J| − σ_J a ≥ 0 and every radix of an exponent m ≤ δ
// is ≤ 0: those exponents' bases are all zero and the ladder skips them
// (bin1From), leaving N₁[O] = Π(1−a_i), the same bits the pass would give.
// gap holds |J| − σ_J a, prod the subset products of 1−a, and base is
// 2^n-entry scratch. It returns the ladder's work.
func (ev *Evaluator) bin1Passes(gap, prod, base []float64) (dist.SubsetVolumeStats, error) {
	ev.n1[0] = 1
	return dist.RadixLadder(gap, ev.shift, base, ev.n, ev.bin1From, func(mask uint64, v float64) {
		v = prod[mask] - v
		if v < 0 {
			v = 0
		}
		ev.n1[mask] = v
	})
}

// openProfile builds the line profile for coordinate i from the committed
// tables: the compressed-lattice sums/signs/products over the frozen
// coordinates, the cardinality-indexed superset-sum tables M^c (N₁ weights
// for the T part) and P^c (N₀ weights for the V part), the pre-expanded
// sign-stable polynomials, the sign-crossing term lists, and the probe
// constants K₁, T(δ), V(1).
func (ev *Evaluator) openProfile(i int) {
	p := &ev.prof
	p.coord = -1
	n := ev.n
	h := 1 << uint(n-1)
	if p.m == nil {
		p.aR = make([]float64, n-1)
		p.omR = make([]float64, n-1)
		p.sumsR = make([]float64, h)
		p.signR = make([]float64, h)
		p.prodR = make([]float64, h)
		p.m = make([]float64, h*n)
		p.p = make([]float64, h*n)
		p.tCoef = make([]float64, n+2)
		p.vCoef = make([]float64, n+2)
		p.crossT = make([]int32, h)
		p.vxRho = make([]float64, h)
		p.vxW = make([]float64, h)
		p.vxE = make([]int32, h)
	}
	hm := uint64(h - 1)
	bit := uint64(1) << uint(i)
	lowMask := bit - 1
	for j2 := 0; j2 < n-1; j2++ {
		src := j2
		if j2 >= i {
			src = j2 + 1
		}
		p.aR[j2] = ev.a[src]
		p.omR[j2] = 1 - ev.a[src]
	}
	p.sumsR[0], p.signR[0], p.prodR[0] = 0, 1, 1
	for mask := 1; mask < h; mask++ {
		par := mask & (mask - 1)
		tz := bits.TrailingZeros64(uint64(mask))
		p.sumsR[mask] = p.sumsR[par] + p.aR[tz]
		p.signR[mask] = -p.signR[par]
		p.prodR[mask] = p.prodR[par] * p.omR[tz]
	}
	// Cardinality-diagonal fill: M holds N₁[R∖T'] at (T', |T'|), P holds
	// N₀[R∖s] at (s, |s|); the vectorized superset-sum pass then yields
	// M^c[J] = Σ_{T'⊇J, |T'|=c} N₁[R∖T'] (and likewise P^c) for every
	// cardinality at once.
	vol := ev.vol
	for idx := range p.m[:h*n] {
		p.m[idx] = 0
		p.p[idx] = 0
	}
	for j := 0; j < h; j++ {
		comp := hm &^ uint64(j)
		fullMask := (comp & lowMask) | (comp&^lowMask)<<1
		c := bits.OnesCount64(uint64(j))
		p.m[j*n+c] = ev.n1[fullMask]
		p.p[j*n+c] = vol[fullMask]
	}
	supersetSumStrided(p.m, n-1, n)
	supersetSumStrided(p.p, n-1, n)

	for t := range p.tCoef {
		p.tCoef[t] = 0
		p.vCoef[t] = 0
	}
	p.ntx, p.nvx = 0, 0
	delta := ev.capacity
	var k1 combin.Accumulator
	for j := 0; j < h; j++ {
		sig := p.sumsR[j]
		k := bits.OnesCount64(uint64(j))
		sgn := p.signR[j]
		comp := hm &^ uint64(j)
		fullMask := (comp & lowMask) | (comp&^lowMask)<<1
		k1.Add(vol[fullMask] * p.prodR[j])
		// T part: radix δ−v−σ_J. Stable on [0, 1] when σ_J ≤ δ−1 →
		// pre-expand (b−v)^(c+1); sign-crossing when δ−1 < σ_J < δ;
		// never positive when σ_J ≥ δ.
		if sig <= delta-1 {
			b := delta - sig
			row := p.m[j*n:]
			for c := k; c < n; c++ {
				w := sgn * ev.invFact[c+1] * row[c]
				if w != 0 {
					brow := ev.binom[(c+1)*(n+2):]
					pw := 1.0
					for t := c + 1; t >= 0; t-- {
						cc := w * brow[t] * pw
						if t&1 == 1 {
							cc = -cc
						}
						p.tCoef[t] += cc
						pw *= b
					}
				}
			}
		} else if sig < delta {
			p.crossT[p.ntx] = int32(j)
			p.ntx++
		}
		// V part: radix c−δ−|J|+σ_J+v per cardinality. Positive at v=0 →
		// pre-expand (r₀+v)^(c+1); r₀ ∈ (−1, 0] crosses zero on (0, 1] →
		// per-probe correction; r₀ ≤ −1 never contributes for v ≤ 1.
		rho := sig - delta - float64(k)
		rowP := p.p[j*n:]
		for c := k; c < n; c++ {
			r0 := float64(c) + rho
			if r0 <= -1 {
				continue
			}
			w := sgn * ev.invFact[c+1] * rowP[c]
			if w == 0 {
				continue
			}
			if r0 > 0 {
				brow := ev.binom[(c+1)*(n+2):]
				pw := 1.0
				for t := c + 1; t >= 0; t-- {
					p.vCoef[t] += w * brow[t] * pw
					pw *= r0
				}
			} else {
				p.vxRho[p.nvx] = r0
				p.vxW[p.nvx] = w
				p.vxE[p.nvx] = int32(c + 1)
				p.nvx++
			}
		}
	}
	p.k1 = k1.Sum()
	p.tAt0 = ev.profT(0)
	p.vAt1 = ev.profV(1)
	p.coord = i
}

// profT evaluates T(δ−v): the pre-expanded polynomial by Horner plus the
// sign-crossing subsets' power ladders.
func (ev *Evaluator) profT(v float64) float64 {
	p := &ev.prof
	n := ev.n
	acc := 0.0
	for t := n + 1; t >= 0; t-- {
		acc = acc*v + p.tCoef[t]
	}
	for x := 0; x < p.ntx; x++ {
		j := int(p.crossT[x])
		r := ev.capacity - v - p.sumsR[j]
		if r <= 0 {
			continue
		}
		k := bits.OnesCount64(uint64(j))
		pw := combin.PowInt(r, k+1) * ev.invFact[k+1]
		row := p.m[j*n:]
		s := 0.0
		for c := k; c < n; c++ {
			s += row[c] * pw
			pw *= r * ev.invInt[c+2]
		}
		acc += p.signR[j] * s
	}
	return acc
}

// profV evaluates V(v): the pre-expanded polynomial by Horner plus the
// crossing terms whose radix turns positive at this v.
func (ev *Evaluator) profV(v float64) float64 {
	p := &ev.prof
	acc := 0.0
	for t := ev.n + 1; t >= 0; t-- {
		acc = acc*v + p.vCoef[t]
	}
	for x := 0; x < p.nvx; x++ {
		r := p.vxRho[x] + v
		if r <= 0 {
			continue
		}
		acc += p.vxW[x] * combin.PowInt(r, int(p.vxE[x]))
	}
	return acc
}

// profEval assembles the line value P(v) from the profile.
func (ev *Evaluator) profEval(v float64) float64 {
	p := &ev.prof
	return dist.Clamp01(p.tAt0 - ev.profT(v) + (1-v)*p.k1 - p.vAt1 + ev.profV(v))
}

// supersetSumStrided transforms arr — 2^ground cells of stride contiguous
// float64 lanes — in place so cell J becomes Σ_{T ⊇ J} cell T, lane by
// lane: the superset (reverse zeta) twin of combin.SumOverSubsets, with
// the lane vectors added contiguously for cache locality.
func supersetSumStrided(arr []float64, ground, stride int) {
	size := 1 << uint(ground)
	for b := 0; b < ground; b++ {
		half := 1 << uint(b)
		step := half << 1
		for base := 0; base < size; base += step {
			for j := base; j < base+half; j++ {
				lo := arr[j*stride : (j+1)*stride]
				hi := arr[(j+half)*stride : (j+half+1)*stride : (j+half+1)*stride]
				for c := range lo {
					lo[c] += hi[c]
				}
			}
		}
	}
}
