package dist

import (
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"

	"repro/internal/combin"
)

// MaxSubsetDim bounds the number of summands for the subset-based
// (asymmetric) inclusion-exclusion formulas; their cost is O(2^m).
const MaxSubsetDim = 30

// UniformSum is the distribution of Σ_{i=1..m} x_i where the x_i are
// independent and x_i ~ U[0, π_i] (Lemmas 2.4 and 2.5 of the paper).
type UniformSum struct {
	widths []float64
}

// NewUniformSum constructs the distribution of a sum of independent
// uniforms on [0, π_i]. All widths must be strictly positive and finite,
// and at most MaxSubsetDim widths are supported.
func NewUniformSum(widths []float64) (*UniformSum, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("dist: uniform sum needs at least one summand")
	}
	if len(widths) > MaxSubsetDim {
		return nil, fmt.Errorf("dist: uniform sum supports at most %d summands, got %d", MaxSubsetDim, len(widths))
	}
	cp := make([]float64, len(widths))
	for i, w := range widths {
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("dist: width %d = %v must be strictly positive and finite", i, w)
		}
		cp[i] = w
	}
	return &UniformSum{widths: cp}, nil
}

// N returns the number of summands m.
func (u *UniformSum) N() int { return len(u.widths) }

// Support returns the support [0, Σ π_i] of the sum.
func (u *UniformSum) Support() (lo, hi float64) {
	var s float64
	for _, w := range u.widths {
		s += w
	}
	return 0, s
}

// CDF evaluates Lemma 2.4:
//
//	F(t) = 1/(m! Π π_l) · Σ_{I : Σ_{l∈I} π_l < t} (-1)^|I| (t - Σ_{l∈I} π_l)^m.
//
// Values are clamped to [0, 1]: F(t) = 0 for t ≤ 0 and 1 beyond the
// support.
func (u *UniformSum) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	if _, hi := u.Support(); t >= hi {
		return 1
	}
	m := len(u.widths)
	var acc combin.Accumulator
	var running float64
	// Gray-code walk keeps the subset weight sum incremental.
	_ = combin.ForEachSubsetGray(m, func(mask uint64, flipped int, added bool) bool {
		if flipped >= 0 {
			if added {
				running += u.widths[flipped]
			} else {
				running -= u.widths[flipped]
			}
		}
		rem := t - running
		if rem <= 0 {
			return true
		}
		v := math.Pow(rem, float64(m))
		if combin.Popcount(mask)%2 == 1 {
			v = -v
		}
		acc.Add(v)
		return true
	})
	norm := float64(1)
	for i, w := range u.widths {
		norm *= w * float64(i+1)
	}
	return clamp01(acc.Sum() / norm)
}

// PDF evaluates Lemma 2.5, the density of the sum:
//
//	f(t) = 1/((m-1)! Π π_l) · Σ_{I : Σ_{l∈I} π_l < t} (-1)^|I| (t - Σ_{l∈I} π_l)^(m-1).
//
// The density is 0 outside the open support.
func (u *UniformSum) PDF(t float64) float64 {
	_, hi := u.Support()
	if t <= 0 || t >= hi {
		return 0
	}
	m := len(u.widths)
	var acc combin.Accumulator
	var running float64
	_ = combin.ForEachSubsetGray(m, func(mask uint64, flipped int, added bool) bool {
		if flipped >= 0 {
			if added {
				running += u.widths[flipped]
			} else {
				running -= u.widths[flipped]
			}
		}
		rem := t - running
		if rem <= 0 {
			return true
		}
		v := math.Pow(rem, float64(m-1))
		if combin.Popcount(mask)%2 == 1 {
			v = -v
		}
		acc.Add(v)
		return true
	})
	norm := float64(1)
	for i, w := range u.widths {
		norm *= w
		if i >= 1 {
			norm *= float64(i)
		}
	}
	v := acc.Sum() / norm
	if v < 0 {
		return 0
	}
	return v
}

// Sample draws one value of the sum using the given random source.
// It returns an error if rng is nil.
func (u *UniformSum) Sample(rng *rand.Rand) (float64, error) {
	if rng == nil {
		return 0, fmt.Errorf("dist: nil random source")
	}
	var s float64
	for _, w := range u.widths {
		s += rng.Float64() * w
	}
	return s, nil
}

// CDFRat evaluates Lemma 2.4 exactly for rational widths and threshold.
// The empty sum is identically zero, so with no widths the CDF is 1 for
// t ≥ 0 and 0 for t < 0. It returns an error on invalid widths, threshold,
// or dimension.
func CDFRat(widths []*big.Rat, t *big.Rat) (*big.Rat, error) {
	m := len(widths)
	if t == nil {
		return nil, fmt.Errorf("dist: nil threshold")
	}
	if m == 0 {
		if t.Sign() < 0 {
			return new(big.Rat), nil
		}
		return big.NewRat(1, 1), nil
	}
	if m > 24 {
		return nil, fmt.Errorf("dist: exact rational CDF supports at most 24 summands, got %d", m)
	}
	support := new(big.Rat)
	for i, w := range widths {
		if w == nil || w.Sign() <= 0 {
			return nil, fmt.Errorf("dist: width %d must be strictly positive", i)
		}
		support.Add(support, w)
	}
	if t.Sign() <= 0 {
		return new(big.Rat), nil
	}
	if t.Cmp(support) >= 0 {
		return big.NewRat(1, 1), nil
	}
	total := new(big.Rat)
	running := new(big.Rat)
	rem := new(big.Rat)
	_ = combin.ForEachSubsetGray(m, func(mask uint64, flipped int, added bool) bool {
		if flipped >= 0 {
			if added {
				running.Add(running, widths[flipped])
			} else {
				running.Sub(running, widths[flipped])
			}
		}
		rem.Sub(t, running)
		if rem.Sign() <= 0 {
			return true
		}
		term := ratPow(rem, m)
		if combin.Popcount(mask)%2 == 1 {
			total.Sub(total, term)
		} else {
			total.Add(total, term)
		}
		return true
	})
	norm := big.NewRat(1, 1)
	for i, w := range widths {
		norm.Mul(norm, w)
		norm.Mul(norm, big.NewRat(int64(i+1), 1))
	}
	return total.Quo(total, norm), nil
}

func ratPow(r *big.Rat, n int) *big.Rat {
	out := big.NewRat(1, 1)
	base := new(big.Rat).Set(r)
	for n > 0 {
		if n&1 == 1 {
			out.Mul(out, base)
		}
		base.Mul(base, base)
		n >>= 1
	}
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
