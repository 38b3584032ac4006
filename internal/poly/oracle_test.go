package poly

// The rational square-free path below is the textbook construction the
// integer chains of sturm.go replace: Euclidean division, monic GCD and
// p/gcd(p, p') over big.Rat, and a Sturm sequence over that square-free
// part. No program path needs it; the tests keep it as the oracle the
// integer remainder sequences are checked against.

import (
	"fmt"
	"math/big"
)

// Divide returns the quotient and remainder of p divided by q, so that
// p = quo·q + rem with deg(rem) < deg(q). It returns an error if q is zero.
func (p RatPoly) Divide(q RatPoly) (quo, rem RatPoly, err error) {
	if q.IsZero() {
		return RatPoly{}, RatPoly{}, fmt.Errorf("poly: division by zero polynomial")
	}
	remC := p.Coeffs()
	dq := q.Degree()
	lead := q.coeffs[dq]
	if len(remC)-1 < dq {
		return RatPoly{}, RatPoly{coeffs: trimRat(remC)}, nil
	}
	quoC := make([]*big.Rat, len(remC)-dq)
	for i := range quoC {
		quoC[i] = new(big.Rat)
	}
	tmp := new(big.Rat)
	for d := len(remC) - 1; d >= dq; d-- {
		if remC[d].Sign() == 0 {
			continue
		}
		factor := new(big.Rat).Quo(remC[d], lead)
		quoC[d-dq].Set(factor)
		for j := 0; j <= dq; j++ {
			tmp.Mul(factor, q.coeffs[j])
			remC[d-dq+j].Sub(remC[d-dq+j], tmp)
		}
	}
	return RatPoly{coeffs: trimRat(quoC)}, RatPoly{coeffs: trimRat(remC)}, nil
}

// GCD returns the monic greatest common divisor of p and q (the zero
// polynomial if both are zero).
func (p RatPoly) GCD(q RatPoly) RatPoly {
	a, b := p, q
	for !b.IsZero() {
		_, r, err := a.Divide(b)
		if err != nil {
			// Unreachable: b is non-zero inside the loop.
			return RatPoly{}
		}
		a, b = b, r
	}
	if a.IsZero() {
		return RatPoly{}
	}
	inv := new(big.Rat).Inv(a.LeadingCoeff())
	return a.Scale(inv)
}

// SquareFree returns p with repeated roots collapsed to simple ones, that
// is, p / gcd(p, p'). The result has the same distinct real roots as p.
func (p RatPoly) SquareFree() RatPoly {
	if p.Degree() < 1 {
		return p
	}
	g := p.GCD(p.Derivative())
	if g.Degree() < 1 {
		return p
	}
	quo, _, err := p.Divide(g)
	if err != nil {
		return p
	}
	return quo
}

// NewSturmSequence builds the Sturm chain of p. Multiple roots are handled
// by first passing to the square-free part, so root counts are counts of
// distinct real roots. It returns an error if p is the zero polynomial.
func NewSturmSequence(p RatPoly) (*SturmSequence, error) {
	if p.IsZero() {
		return nil, fmt.Errorf("poly: Sturm sequence of the zero polynomial")
	}
	_, s := squareFreeSturm(p)
	return s, nil
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
