package dist

import (
	"fmt"
	"math/big"

	"repro/internal/combin"
)

// CDFRat evaluates Lemma 2.4, the CDF of Σ x_i with independent
// x_i ~ U[0, w_i], exactly for rational widths and threshold:
//
//	F(t) = 1/(m! Π w_l) · Σ_{I : Σ_{l∈I} w_l < t} (-1)^|I| (t - Σ_{l∈I} w_l)^m.
//
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
