package dist

import (
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"

	"repro/internal/combin"
)

// ShiftedUniformSum is the distribution of Σ_{i=1..m} x_i where the x_i
// are independent and x_i ~ U[π_i, 1] with 0 ≤ π_i < 1 (Lemma 2.7 of the
// paper). Under a single-threshold decision algorithm this is exactly the
// conditional distribution of the load placed in the "high" bin.
type ShiftedUniformSum struct {
	lowers []float64
}

// NewShiftedUniformSum constructs the distribution of a sum of independent
// uniforms on [π_i, 1]. All lower bounds must lie in [0, 1).
func NewShiftedUniformSum(lowers []float64) (*ShiftedUniformSum, error) {
	if len(lowers) == 0 {
		return nil, fmt.Errorf("dist: shifted uniform sum needs at least one summand")
	}
	if len(lowers) > MaxSubsetDim {
		return nil, fmt.Errorf("dist: shifted uniform sum supports at most %d summands, got %d", MaxSubsetDim, len(lowers))
	}
	cp := make([]float64, len(lowers))
	for i, l := range lowers {
		if l < 0 || l >= 1 || math.IsNaN(l) {
			return nil, fmt.Errorf("dist: lower bound %d = %v must be in [0, 1)", i, l)
		}
		cp[i] = l
	}
	return &ShiftedUniformSum{lowers: cp}, nil
}

// N returns the number of summands m.
func (s *ShiftedUniformSum) N() int { return len(s.lowers) }

// Support returns [Σ π_i, m].
func (s *ShiftedUniformSum) Support() (lo, hi float64) {
	var sum float64
	for _, l := range s.lowers {
		sum += l
	}
	return sum, float64(len(s.lowers))
}

// CDF evaluates Lemma 2.7:
//
//	F(t) = 1 - 1/(m! Π(1-π_l)) Σ_{I : |I| < m - t + Σ_{l∈I} π_l}
//	        (-1)^|I| (m - t - |I| + Σ_{l∈I} π_l)^m,
//
// clamped to [0, 1].
func (s *ShiftedUniformSum) CDF(t float64) float64 {
	lo, hi := s.Support()
	if t <= lo {
		return 0
	}
	if t >= hi {
		return 1
	}
	m := len(s.lowers)
	mt := float64(m) - t
	var acc combin.Accumulator
	var running float64
	_ = combin.ForEachSubsetGray(m, func(mask uint64, flipped int, added bool) bool {
		if flipped >= 0 {
			if added {
				running += s.lowers[flipped]
			} else {
				running -= s.lowers[flipped]
			}
		}
		rem := mt - float64(combin.Popcount(mask)) + running
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
	for i, l := range s.lowers {
		norm *= (1 - l) * float64(i+1)
	}
	return clamp01(1 - acc.Sum()/norm)
}

// CDFViaComplement evaluates the same CDF through the substitution
// x'_i = 1 - x_i used in the paper's proof of Lemma 2.7:
// P(Σ x_i ≤ t) = 1 - P(Σ x'_i ≤ m - t) with x'_i ~ U[0, 1 - π_i].
// It exists as an independent implementation for cross-validation.
func (s *ShiftedUniformSum) CDFViaComplement(t float64) (float64, error) {
	widths := make([]float64, len(s.lowers))
	for i, l := range s.lowers {
		widths[i] = 1 - l
	}
	comp, err := NewUniformSum(widths)
	if err != nil {
		return 0, fmt.Errorf("dist: building complement distribution: %w", err)
	}
	return clamp01(1 - comp.CDF(float64(len(s.lowers))-t)), nil
}

// Sample draws one value of the sum. It returns an error if rng is nil.
func (s *ShiftedUniformSum) Sample(rng *rand.Rand) (float64, error) {
	if rng == nil {
		return 0, fmt.Errorf("dist: nil random source")
	}
	var sum float64
	for _, l := range s.lowers {
		sum += l + rng.Float64()*(1-l)
	}
	return sum, nil
}

// ShiftedCDFRat evaluates Lemma 2.7 exactly for rational lower bounds and
// threshold, via the complement identity and the exact Lemma 2.4 kernel.
func ShiftedCDFRat(lowers []*big.Rat, t *big.Rat) (*big.Rat, error) {
	m := len(lowers)
	if m == 0 {
		return nil, fmt.Errorf("dist: shifted uniform sum needs at least one summand")
	}
	if t == nil {
		return nil, fmt.Errorf("dist: nil threshold")
	}
	one := big.NewRat(1, 1)
	widths := make([]*big.Rat, m)
	for i, l := range lowers {
		if l == nil || l.Sign() < 0 || l.Cmp(one) >= 0 {
			return nil, fmt.Errorf("dist: lower bound %d must be in [0, 1)", i)
		}
		widths[i] = new(big.Rat).Sub(one, l)
	}
	comp := new(big.Rat).SetInt64(int64(m))
	comp.Sub(comp, t)
	c, err := CDFRat(widths, comp)
	if err != nil {
		return nil, err
	}
	return new(big.Rat).Sub(one, c), nil
}
