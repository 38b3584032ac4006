package response

import (
	"fmt"
	"math"

	"repro/internal/combin"
	"repro/internal/dist"
)

// WinProbabilityVector evaluates the fully general deterministic
// no-communication algorithm: player i places its input in bin 0 exactly
// when it lies in sets[i]. This is the asymmetric extension of
// ExactWinProbability in float64: for every decision vector b, the joint
// probability that the bin-0 players' inputs land in their sets with a
// fitting sum decomposes over the pattern of intervals chosen, each
// pattern reducing to a shifted Lemma 2.4 CDF.
//
// Cost grows as 2^n × Π(intervals per player), so n is capped at 10 and
// each player's region and its complement at 4 intervals.
func WinProbabilityVector(sets []IntervalSet, capacity float64) (float64, error) {
	complements := make([]IntervalSet, len(sets))
	for i, s := range sets {
		complements[i] = s.Complement()
	}
	return WinProbabilityVectorPairs(sets, complements, capacity)
}

// WinProbabilityVectorPairs evaluates the most general event this package
// supports: player i contributes to bin 0 when its input lies in
// bin0[i], to bin 1 when it lies in bin1[i], and the round is only
// counted when every input lands in bin0[i] ∪ bin1[i] (the pair may
// cover less than [0,1], which is how conditioning on a communication
// outcome — e.g. a broadcast bit fixing a sub-range of the sender's input
// — enters the framework). bin0[i] and bin1[i] may share only points. The
// returned value is the UNCONDITIONAL probability
// P(all inputs covered ∧ Σ₀ ≤ δ ∧ Σ₁ ≤ δ); summing it over a partition of
// conditioning events yields a protocol's total winning probability.
func WinProbabilityVectorPairs(bin0, bin1 []IntervalSet, capacity float64) (float64, error) {
	var sc Scratch
	return sc.WinProbabilityVectorPairs(bin0, bin1, capacity)
}

// WinProbabilityVectorPairs is the package function of the same name,
// evaluated with sc's region-mass memos, so that repeated evaluations
// reuse their storage. It leaves the arena as it is.
func (sc *Scratch) WinProbabilityVectorPairs(bin0, bin1 []IntervalSet, capacity float64) (float64, error) {
	if len(bin1) != len(bin0) {
		return 0, fmt.Errorf("response: %d bin-0 regions but %d bin-1 regions", len(bin0), len(bin1))
	}
	for i := range bin0 {
		if len(bin0[i].intervals) > 4 || len(bin1[i].intervals) > 4 {
			return 0, fmt.Errorf("response: player %d exceeds 4 intervals per region", i)
		}
		for _, a := range bin0[i].intervals {
			for _, b := range bin1[i].intervals {
				// A shared point has probability zero: a one-point region
				// inside its complement [0, 1] is no overlap.
				if lo, hi := math.Max(a.Lo, b.Lo), math.Min(a.Hi, b.Hi); lo < hi {
					return 0, fmt.Errorf("response: player %d bin regions overlap on [%v, %v]", i, lo, hi)
				}
			}
		}
	}
	return sc.vectorWin(bin0, bin1, capacity)
}

// vectorWin sums, over every decision vector b, the joint mass of the
// bin-0 players in their bin0 regions times that of the bin-1 players in
// their bin1 regions, each with a fitting sum.
func (sc *Scratch) vectorWin(bin0, bin1 []IntervalSet, capacity float64) (float64, error) {
	n := len(bin0)
	if n < 2 {
		return 0, fmt.Errorf("response: need at least 2 players, got %d", n)
	}
	if n > 10 {
		return 0, fmt.Errorf("response: vector evaluation limited to 10 players, got %d", n)
	}
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return 0, fmt.Errorf("response: capacity %v must be strictly positive and finite", capacity)
	}
	zero, one := &sc.zero, &sc.one
	zero.reset(bin0, capacity)
	one.reset(bin1, capacity)
	all := uint64(1)<<uint(n) - 1
	var total combin.Accumulator
	err := combin.ForEachSubset(n, func(b uint64) bool {
		m0 := zero.mass(all &^ b)
		if m0 == 0 {
			return true
		}
		m1 := one.mass(b)
		total.Add(m0 * m1)
		return true
	})
	if err != nil {
		return 0, err
	}
	return dist.Clamp01(total.Sum()), nil
}

// regionMasses memoizes jointMass over the subsets of one side's regions.
// Players whose regions have bit-identical intervals share a class id
// (1-based, so at most 10 ids fit 4 bits each), and a subset's key is the
// sequence of its players' ids in player order. Equal keys are equal
// jointMass inputs, so a cached mass has the bits a fresh call would give.
type regionMasses struct {
	sets     []IntervalSet
	class    []uint64
	memo     map[uint64]float64
	capacity float64
	// Scratch for jointMass: the subset's regions, their widths in the
	// current interval pattern, and all-ones multiplicities.
	regions []IntervalSet
	widths  []float64
	ones    []int
	acc     combin.Accumulator
}

// reset points r at a new side's regions and capacity and forgets every
// cached mass.
func (r *regionMasses) reset(sets []IntervalSet, capacity float64) {
	n := len(sets)
	r.sets, r.capacity = sets, capacity
	if r.memo == nil {
		r.memo = make(map[uint64]float64)
	} else {
		clear(r.memo)
	}
	if cap(r.class) < n {
		r.class = make([]uint64, n)
		r.regions = make([]IntervalSet, 0, n)
		r.widths = make([]float64, n)
		r.ones = make([]int, n)
	}
	r.class = r.class[:n]
	next := uint64(0)
	for i, s := range sets {
		r.ones[i] = 1
		r.class[i] = 0
		for j := 0; j < i && r.class[i] == 0; j++ {
			if sameIntervals(s, sets[j]) {
				r.class[i] = r.class[j]
			}
		}
		if r.class[i] == 0 {
			next++
			r.class[i] = next
		}
	}
}

// sameIntervals reports whether two sets hold bit-identical intervals.
func sameIntervals(a, b IntervalSet) bool {
	if len(a.intervals) != len(b.intervals) {
		return false
	}
	for k, iv := range a.intervals {
		jv := b.intervals[k]
		if math.Float64bits(iv.Lo) != math.Float64bits(jv.Lo) || math.Float64bits(iv.Hi) != math.Float64bits(jv.Hi) {
			return false
		}
	}
	return true
}

// mass returns jointMass of the regions of the players in sel, in player
// order.
func (r *regionMasses) mass(sel uint64) float64 {
	var key uint64
	for i, c := range r.class {
		if sel&(1<<uint(i)) != 0 {
			key = key<<4 | c
		}
	}
	if m, ok := r.memo[key]; ok {
		return m
	}
	r.regions = r.regions[:0]
	for i, s := range r.sets {
		if sel&(1<<uint(i)) != 0 {
			r.regions = append(r.regions, s)
		}
	}
	m := r.jointMass()
	r.memo[key] = m
	return m
}

// jointMass returns P(x_i ∈ regions[i] for all i, Σ x_i ≤ capacity) for
// independent U[0,1] inputs, by summing over the interval pattern each
// input selects the box volume of the shifted Lemma 2.4 event.
func (r *regionMasses) jointMass() float64 {
	if len(r.regions) == 0 {
		return 1
	}
	r.acc = combin.Accumulator{}
	r.walk(0, 0)
	return r.acc.Sum()
}

func (r *regionMasses) walk(idx int, lowSum float64) {
	m := len(r.regions)
	if idx == m {
		r.acc.Add(boxVolume(r.widths[:m], r.ones[:m], r.capacity-lowSum))
		return
	}
	for _, iv := range r.regions[idx].intervals {
		// Zero-width intervals carry no mass.
		if w := iv.Hi - iv.Lo; w > 0 {
			r.widths[idx] = w
			r.walk(idx+1, lowSum+iv.Lo)
		}
	}
}
