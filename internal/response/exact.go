package response

import (
	"fmt"
	"math/big"
)

// RatInterval is a closed rational subinterval [Lo, Hi] of [0, 1].
type RatInterval struct {
	Lo, Hi *big.Rat
}

// RatIntervalSet is an exact-rational bin-0 region: a finite union of
// disjoint intervals with rational endpoints.
type RatIntervalSet struct {
	intervals []RatInterval
}

// NewRatIntervalSet validates the intervals: each within [0, 1] with
// Lo ≤ Hi, pairwise disjoint, and sorted ascending. (Unlike the float
// constructor this one does not merge — exact inputs are expected to be in
// canonical form already.)
func NewRatIntervalSet(intervals []RatInterval) (RatIntervalSet, error) {
	one := big.NewRat(1, 1)
	cp := make([]RatInterval, len(intervals))
	for i, iv := range intervals {
		if iv.Lo == nil || iv.Hi == nil {
			return RatIntervalSet{}, fmt.Errorf("response: nil endpoint in interval %d", i)
		}
		if iv.Lo.Sign() < 0 || iv.Hi.Cmp(one) > 0 || iv.Lo.Cmp(iv.Hi) > 0 {
			return RatIntervalSet{}, fmt.Errorf("response: interval %d = [%v, %v] invalid within [0, 1]", i, iv.Lo, iv.Hi)
		}
		cp[i] = RatInterval{Lo: new(big.Rat).Set(iv.Lo), Hi: new(big.Rat).Set(iv.Hi)}
		if i > 0 && cp[i-1].Hi.Cmp(cp[i].Lo) > 0 {
			return RatIntervalSet{}, fmt.Errorf("response: intervals %d and %d overlap or are unsorted", i-1, i)
		}
	}
	return RatIntervalSet{intervals: cp}, nil
}

// Measure returns |S| exactly.
func (s RatIntervalSet) Measure() *big.Rat {
	m := new(big.Rat)
	for _, iv := range s.intervals {
		w := new(big.Rat).Sub(iv.Hi, iv.Lo)
		m.Add(m, w)
	}
	return m
}

// Complement returns the closure of [0,1] \ S.
func (s RatIntervalSet) Complement() RatIntervalSet {
	one := big.NewRat(1, 1)
	var out []RatInterval
	cursor := new(big.Rat)
	for _, iv := range s.intervals {
		if iv.Lo.Cmp(cursor) > 0 {
			out = append(out, RatInterval{Lo: new(big.Rat).Set(cursor), Hi: new(big.Rat).Set(iv.Lo)})
		}
		cursor = new(big.Rat).Set(iv.Hi)
	}
	if cursor.Cmp(one) < 0 {
		out = append(out, RatInterval{Lo: cursor, Hi: one})
	}
	set, err := NewRatIntervalSet(out)
	if err != nil {
		// Unreachable: complement of a valid set is valid.
		panic(err)
	}
	return set
}

// Float converts to the float64 IntervalSet (for the simulator and the
// float oracle).
func (s RatIntervalSet) Float() (IntervalSet, error) {
	out := make([]Interval, len(s.intervals))
	for i, iv := range s.intervals {
		lo, _ := iv.Lo.Float64()
		hi, _ := iv.Hi.Float64()
		out[i] = Interval{Lo: lo, Hi: hi}
	}
	return NewIntervalSet(out)
}

// ExactWinProbability evaluates the symmetric rule with bin-0 region s for
// n players and rational capacity δ, in exact rational arithmetic.
//
// Conditioned on which players choose bin 0 and on WHICH interval of the
// region each such player's input falls into, the inputs are independent
// uniforms on those intervals; shifting each to the origin reduces the
// joint event to the Lemma 2.4 CDF with per-player widths and a shifted
// capacity:
//
//	N(m) = Σ_{k_1+..+k_r = m} multinomial(m; k) · Π_j w_j^{k_j} ·
//	        F_{widths(k)}(δ - Σ_j k_j·lo_j),
//
// where width w_j = hi_j - lo_j appears k_j times. The winning probability
// is then Theorem 5.1's Σ_k C(n,k) N₀(n-k) N₁(k) with N₀ over s and N₁
// over its complement. Degenerate intervals (zero width) carry zero mass
// and are skipped. It is the uniform-density case of
// ExactWinProbabilityDist, with the larger player cap the single-piece
// density allows.
func ExactWinProbability(n int, capacity *big.Rat, s RatIntervalSet) (*big.Rat, error) {
	if n < 2 {
		return nil, fmt.Errorf("response: need at least 2 players, got %d", n)
	}
	if n > 12 {
		return nil, fmt.Errorf("response: exact evaluation limited to 12 players, got %d", n)
	}
	if capacity == nil || capacity.Sign() <= 0 {
		return nil, fmt.Errorf("response: capacity must be strictly positive")
	}
	return exactWin(n, capacity, s, UniformDensity())
}
