package response

import (
	"fmt"
	"math/big"

	"repro/internal/combin"
	"repro/internal/dist"
)

// PiecewiseDensity is an input distribution with a piecewise-constant
// density on [0, 1]: height Heights[i] on [Breaks[i], Breaks[i+1]]. It
// realizes the paper's closing future-work axis — "more realistic
// assumptions on the distribution of inputs" — inside the same
// combinatorial framework: conditioned on the piece each input lands in,
// inputs are still uniform on intervals, so every Lemma 2.4 reduction
// survives with pattern weights height·width instead of width.
type PiecewiseDensity struct {
	breaks  []*big.Rat
	heights []*big.Rat
}

// NewPiecewiseDensity validates breaks (strictly increasing from 0 to 1)
// and non-negative heights whose total mass Σ height·width is exactly 1.
func NewPiecewiseDensity(breaks, heights []*big.Rat) (PiecewiseDensity, error) {
	if len(breaks) != len(heights)+1 {
		return PiecewiseDensity{}, fmt.Errorf("response: %d breaks need %d heights, got %d",
			len(breaks), len(breaks)-1, len(heights))
	}
	if len(heights) == 0 {
		return PiecewiseDensity{}, fmt.Errorf("response: density needs at least one piece")
	}
	one := big.NewRat(1, 1)
	bs := make([]*big.Rat, len(breaks))
	for i, b := range breaks {
		if b == nil {
			return PiecewiseDensity{}, fmt.Errorf("response: nil break %d", i)
		}
		bs[i] = new(big.Rat).Set(b)
		if i > 0 && bs[i-1].Cmp(bs[i]) >= 0 {
			return PiecewiseDensity{}, fmt.Errorf("response: breaks must increase strictly")
		}
	}
	if bs[0].Sign() != 0 || bs[len(bs)-1].Cmp(one) != 0 {
		return PiecewiseDensity{}, fmt.Errorf("response: density must span [0, 1]")
	}
	hs := make([]*big.Rat, len(heights))
	mass := new(big.Rat)
	w := new(big.Rat)
	for i, h := range heights {
		if h == nil || h.Sign() < 0 {
			return PiecewiseDensity{}, fmt.Errorf("response: height %d must be non-negative", i)
		}
		hs[i] = new(big.Rat).Set(h)
		w.Sub(bs[i+1], bs[i])
		w.Mul(w, h)
		mass.Add(mass, w)
	}
	if mass.Cmp(one) != 0 {
		return PiecewiseDensity{}, fmt.Errorf("response: density mass %v, want exactly 1", mass)
	}
	return PiecewiseDensity{breaks: bs, heights: hs}, nil
}

// UniformDensity returns the U[0, 1] density.
func UniformDensity() PiecewiseDensity {
	d, err := NewPiecewiseDensity(
		[]*big.Rat{new(big.Rat), big.NewRat(1, 1)},
		[]*big.Rat{big.NewRat(1, 1)},
	)
	if err != nil {
		// Unreachable: the uniform density is valid.
		panic(err)
	}
	return d
}

// DensityAt returns the density height at the rational point x (the right
// piece at interior breakpoints, 0 outside [0, 1]).
func (d PiecewiseDensity) DensityAt(x *big.Rat) *big.Rat {
	if x.Sign() < 0 || x.Cmp(d.breaks[len(d.breaks)-1]) > 0 {
		return new(big.Rat)
	}
	for i := len(d.heights) - 1; i >= 0; i-- {
		if x.Cmp(d.breaks[i]) >= 0 {
			return new(big.Rat).Set(d.heights[i])
		}
	}
	return new(big.Rat).Set(d.heights[0])
}

// weightedCell is one atom of the decomposition: inputs conditioned into
// [lo, hi] are uniform there with total mass = height·(hi-lo).
type weightedCell struct {
	lo, width, mass *big.Rat
}

// cells intersects the density pieces with an interval set, producing the
// atoms over which patterns are enumerated.
func (d PiecewiseDensity) cells(s RatIntervalSet) []weightedCell {
	var out []weightedCell
	for _, iv := range s.intervals {
		for i, h := range d.heights {
			lo := maxRat(iv.Lo, d.breaks[i])
			hi := minRat(iv.Hi, d.breaks[i+1])
			if lo.Cmp(hi) >= 0 || h.Sign() == 0 {
				continue
			}
			w := new(big.Rat).Sub(hi, lo)
			m := new(big.Rat).Mul(w, h)
			out = append(out, weightedCell{lo: lo, width: w, mass: m})
		}
	}
	return out
}

func maxRat(a, b *big.Rat) *big.Rat {
	if a.Cmp(b) >= 0 {
		return new(big.Rat).Set(a)
	}
	return new(big.Rat).Set(b)
}

func minRat(a, b *big.Rat) *big.Rat {
	if a.Cmp(b) <= 0 {
		return new(big.Rat).Set(a)
	}
	return new(big.Rat).Set(b)
}

// ExactWinProbabilityDist evaluates the symmetric rule with bin-0 region s
// when the n inputs are iid with the piecewise-constant density d, in
// exact rational arithmetic. With d = UniformDensity() it coincides with
// ExactWinProbability.
func ExactWinProbabilityDist(n int, capacity *big.Rat, s RatIntervalSet, d PiecewiseDensity) (*big.Rat, error) {
	if n < 2 {
		return nil, fmt.Errorf("response: need at least 2 players, got %d", n)
	}
	if n > 10 {
		return nil, fmt.Errorf("response: exact evaluation limited to 10 players, got %d", n)
	}
	if capacity == nil || capacity.Sign() <= 0 {
		return nil, fmt.Errorf("response: capacity must be strictly positive")
	}
	if len(d.heights) == 0 {
		return nil, fmt.Errorf("response: empty density (use NewPiecewiseDensity)")
	}
	return exactWin(n, capacity, s, d)
}

// exactWin is Theorem 5.1's Σ_k C(n,k) N₀(n-k) N₁(k) in exact arithmetic,
// with N₀ over the cells of s under d and N₁ over those of its complement.
func exactWin(n int, capacity *big.Rat, s RatIntervalSet, d PiecewiseDensity) (*big.Rat, error) {
	n0, err := weightedMasses(n, capacity, d.cells(s))
	if err != nil {
		return nil, err
	}
	n1, err := weightedMasses(n, capacity, d.cells(s.Complement()))
	if err != nil {
		return nil, err
	}
	total := new(big.Rat)
	term := new(big.Rat)
	for k := 0; k <= n; k++ {
		c, err := combin.BinomialBig(n, k)
		if err != nil {
			return nil, err
		}
		term.SetInt(c)
		term.Mul(term, n0[n-k])
		term.Mul(term, n1[k])
		total.Add(total, term)
	}
	return total, nil
}

// weightedMasses returns N(m) = P(m iid d-inputs all land in the cells
// and their sum fits) for m = 0..n.
func weightedMasses(n int, capacity *big.Rat, cells []weightedCell) ([]*big.Rat, error) {
	out := make([]*big.Rat, n+1)
	out[0] = big.NewRat(1, 1)
	r := len(cells)
	if r == 0 {
		for m := 1; m <= n; m++ {
			out[m] = new(big.Rat)
		}
		return out, nil
	}
	for m := 1; m <= n; m++ {
		total := new(big.Rat)
		var innerErr error
		err := combin.ForEachComposition(m, r, func(parts []int) bool {
			var ws []*big.Rat
			shifted := new(big.Rat).Set(capacity)
			weight := big.NewRat(1, 1)
			tmp := new(big.Rat)
			for j, kj := range parts {
				for c := 0; c < kj; c++ {
					ws = append(ws, cells[j].width)
					weight.Mul(weight, cells[j].mass)
				}
				tmp.SetInt64(int64(kj))
				tmp.Mul(tmp, cells[j].lo)
				shifted.Sub(shifted, tmp)
			}
			mult, err := combin.Multinomial(parts...)
			if err != nil {
				innerErr = err
				return false
			}
			var cdf *big.Rat
			if shifted.Sign() <= 0 {
				cdf = new(big.Rat)
			} else {
				cdf, err = dist.CDFRat(ws, shifted)
				if err != nil {
					innerErr = err
					return false
				}
			}
			// Per ordered pattern: mass = Π (cell mass) × conditional CDF;
			// the conditional distribution of each input within its cell
			// is uniform, so the CDF ratio applies directly.
			term := new(big.Rat).SetInt64(mult)
			term.Mul(term, weight)
			term.Mul(term, cdf)
			total.Add(total, term)
			return true
		})
		if err != nil {
			return nil, err
		}
		if innerErr != nil {
			return nil, innerErr
		}
		out[m] = total
	}
	return out, nil
}
