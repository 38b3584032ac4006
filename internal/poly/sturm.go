package poly

import (
	"fmt"
	"math/big"
)

// Interval is a closed rational interval [Lo, Hi].
type Interval struct {
	Lo, Hi *big.Rat
}

// Mid returns the midpoint (Lo + Hi)/2.
func (iv Interval) Mid() *big.Rat {
	m := new(big.Rat).Add(iv.Lo, iv.Hi)
	return m.Mul(m, big.NewRat(1, 2))
}

// MidFloat returns the midpoint as a float64.
func (iv Interval) MidFloat() float64 {
	f, _ := iv.Mid().Float64()
	return f
}

// SturmSequence holds the canonical Sturm chain of a square-free polynomial
// and answers exact root-counting queries on rational intervals.
type SturmSequence struct {
	chain []RatPoly
}

// NewSturmSequence builds the Sturm chain of p. Multiple roots are handled
// by first passing to the square-free part, so root counts are counts of
// distinct real roots. It returns an error if p is the zero polynomial.
func NewSturmSequence(p RatPoly) (*SturmSequence, error) {
	if p.IsZero() {
		return nil, fmt.Errorf("poly: Sturm sequence of the zero polynomial")
	}
	sf := p.SquareFree()
	chain := []RatPoly{sf}
	if sf.Degree() >= 1 {
		chain = append(chain, sf.Derivative())
		for {
			last := chain[len(chain)-1]
			if last.IsZero() {
				chain = chain[:len(chain)-1]
				break
			}
			if last.Degree() == 0 {
				break
			}
			_, rem, err := chain[len(chain)-2].Divide(last)
			if err != nil {
				return nil, fmt.Errorf("poly: building Sturm chain: %w", err)
			}
			if rem.IsZero() {
				break
			}
			chain = append(chain, rem.Neg())
		}
	}
	return &SturmSequence{chain: chain}, nil
}

// signVariations counts sign changes of the chain evaluated at x,
// ignoring zeros, per Sturm's theorem.
func (s *SturmSequence) signVariations(x *big.Rat) int {
	variations := 0
	prev := 0
	for _, q := range s.chain {
		sign := q.Eval(x).Sign()
		if sign == 0 {
			continue
		}
		if prev != 0 && sign != prev {
			variations++
		}
		prev = sign
	}
	return variations
}

// CountRootsIn returns the number of distinct real roots of the underlying
// polynomial in the half-open interval (lo, hi]. It returns an error if
// lo > hi.
func (s *SturmSequence) CountRootsIn(lo, hi *big.Rat) (int, error) {
	if lo.Cmp(hi) > 0 {
		return 0, fmt.Errorf("poly: inverted interval (%v, %v]", lo, hi)
	}
	return s.signVariations(lo) - s.signVariations(hi), nil
}

// IsolateRoots returns disjoint rational intervals, each containing exactly
// one distinct real root of p in (lo, hi]. Roots lying exactly at rational
// subdivision points are returned as degenerate intervals with Lo == Hi.
func IsolateRoots(p RatPoly, lo, hi *big.Rat) ([]Interval, error) {
	if p.IsZero() {
		return nil, fmt.Errorf("poly: cannot isolate roots of the zero polynomial")
	}
	if lo.Cmp(hi) > 0 {
		return nil, fmt.Errorf("poly: inverted interval [%v, %v]", lo, hi)
	}
	sf := p.SquareFree()
	if sf.Degree() < 1 {
		return nil, nil
	}
	s, err := NewSturmSequence(sf)
	if err != nil {
		return nil, err
	}
	var out []Interval
	var recurse func(a, b *big.Rat) error
	recurse = func(a, b *big.Rat) error {
		count, err := s.CountRootsIn(a, b)
		if err != nil {
			return err
		}
		switch {
		case count == 0:
			return nil
		case count == 1:
			out = append(out, Interval{Lo: new(big.Rat).Set(a), Hi: new(big.Rat).Set(b)})
			return nil
		default:
			mid := new(big.Rat).Add(a, b)
			mid.Mul(mid, big.NewRat(1, 2))
			if sf.Eval(mid).Sign() == 0 {
				// The midpoint is itself a root: report it as a degenerate
				// interval, then shrink the left half so that (a, leftCut]
				// no longer contains the midpoint root. The right half
				// (mid, b] already excludes it.
				out = append(out, Interval{Lo: new(big.Rat).Set(mid), Hi: new(big.Rat).Set(mid)})
				w := new(big.Rat).Sub(mid, a)
				half := big.NewRat(1, 2)
				leftCut := new(big.Rat)
				for {
					w.Mul(w, half)
					leftCut.Sub(mid, w)
					c, err := s.CountRootsIn(leftCut, mid)
					if err != nil {
						return err
					}
					if c == 1 { // only the midpoint root remains to the right of leftCut
						break
					}
				}
				if err := recurse(a, leftCut); err != nil {
					return err
				}
				return recurse(mid, b)
			}
			if err := recurse(a, mid); err != nil {
				return err
			}
			return recurse(mid, b)
		}
	}
	if err := recurse(lo, hi); err != nil {
		return nil, err
	}
	return out, nil
}

// RefineRoot narrows an isolating interval for a root of p down to width at
// most tol by exact rational bisection, and returns the final enclosure.
// The interval must satisfy the Sturm guarantee of containing exactly one
// root in (Lo, Hi] (as produced by IsolateRoots); degenerate intervals are
// returned unchanged. It returns an error if tol is not positive.
func RefineRoot(p RatPoly, iv Interval, tol *big.Rat) (Interval, error) {
	if tol == nil || tol.Sign() <= 0 {
		return Interval{}, fmt.Errorf("poly: non-positive refinement tolerance")
	}
	lo := new(big.Rat).Set(iv.Lo)
	hi := new(big.Rat).Set(iv.Hi)
	if lo.Cmp(hi) == 0 {
		return Interval{Lo: lo, Hi: hi}, nil
	}
	sf := p.SquareFree()
	sHi := sf.Eval(hi).Sign()
	if sHi == 0 {
		// The unique root of (Lo, Hi] sits exactly at the right endpoint.
		return Interval{Lo: new(big.Rat).Set(hi), Hi: hi}, nil
	}
	width := new(big.Rat).Sub(hi, lo)
	half := big.NewRat(1, 2)
	for width.Cmp(tol) > 0 {
		mid := new(big.Rat).Add(lo, hi)
		mid.Mul(mid, half)
		sMid := sf.Eval(mid).Sign()
		if sMid == 0 {
			return Interval{Lo: mid, Hi: new(big.Rat).Set(mid)}, nil
		}
		// The root lies in (lo, hi]; keep the half whose right endpoint
		// sign differs from the left endpoint side. Since the interval
		// contains exactly one root and sf changes sign across it, compare
		// against the sign at hi.
		if sMid == sHi {
			hi.Set(mid)
		} else {
			lo.Set(mid)
		}
		width.Sub(hi, lo)
	}
	return Interval{Lo: lo, Hi: hi}, nil
}
