package poly

import (
	"fmt"
	"math/big"
	"strings"
)

// RatPoly is a univariate polynomial with exact rational coefficients,
// stored in ascending order of degree. The zero polynomial has an empty
// coefficient slice. RatPoly values are immutable by convention: all
// methods return new polynomials and never modify their receivers or
// arguments.
type RatPoly struct {
	coeffs []*big.Rat
}

// NewRatPoly builds a polynomial from ascending coefficients. The input
// slice is deep-copied; trailing zeros are trimmed.
func NewRatPoly(coeffs []*big.Rat) RatPoly {
	cp := make([]*big.Rat, len(coeffs))
	for i, c := range coeffs {
		if c == nil {
			cp[i] = new(big.Rat)
		} else {
			cp[i] = new(big.Rat).Set(c)
		}
	}
	return RatPoly{coeffs: trimRat(cp)}
}

// RatPolyFromInt64 builds a polynomial with integer coefficients given in
// ascending order.
func RatPolyFromInt64(coeffs ...int64) RatPoly {
	cp := make([]*big.Rat, len(coeffs))
	for i, c := range coeffs {
		cp[i] = new(big.Rat).SetInt64(c)
	}
	return RatPoly{coeffs: trimRat(cp)}
}

// RatPolyFromFracs builds a polynomial whose coefficient of x^i is
// nums[i]/dens[i], given in ascending order. It returns an error if the
// slices have different lengths or any denominator is zero.
func RatPolyFromFracs(nums, dens []int64) (RatPoly, error) {
	if len(nums) != len(dens) {
		return RatPoly{}, fmt.Errorf("poly: %d numerators but %d denominators", len(nums), len(dens))
	}
	cp := make([]*big.Rat, len(nums))
	for i := range nums {
		if dens[i] == 0 {
			return RatPoly{}, fmt.Errorf("poly: zero denominator at coefficient %d", i)
		}
		cp[i] = big.NewRat(nums[i], dens[i])
	}
	return RatPoly{coeffs: trimRat(cp)}, nil
}

// RatPolyX returns the monomial x.
func RatPolyX() RatPoly {
	return RatPoly{coeffs: []*big.Rat{new(big.Rat), big.NewRat(1, 1)}}
}

// RatPolyAffine returns the polynomial a + b·x.
func RatPolyAffine(a, b *big.Rat) RatPoly {
	return NewRatPoly([]*big.Rat{a, b})
}

func trimRat(cs []*big.Rat) []*big.Rat {
	n := len(cs)
	for n > 0 && cs[n-1].Sign() == 0 {
		n--
	}
	return cs[:n]
}

// Degree returns the degree of p, with -1 for the zero polynomial.
func (p RatPoly) Degree() int { return len(p.coeffs) - 1 }

// IsZero reports whether p is the zero polynomial.
func (p RatPoly) IsZero() bool { return len(p.coeffs) == 0 }

// Coeff returns a copy of the coefficient of x^i (zero beyond the degree).
func (p RatPoly) Coeff(i int) *big.Rat {
	if i < 0 || i >= len(p.coeffs) {
		return new(big.Rat)
	}
	return new(big.Rat).Set(p.coeffs[i])
}

// Coeffs returns a deep copy of the ascending coefficient slice.
func (p RatPoly) Coeffs() []*big.Rat {
	out := make([]*big.Rat, len(p.coeffs))
	for i, c := range p.coeffs {
		out[i] = new(big.Rat).Set(c)
	}
	return out
}

// LeadingCoeff returns a copy of the leading coefficient (0 for the zero
// polynomial).
func (p RatPoly) LeadingCoeff() *big.Rat {
	if p.IsZero() {
		return new(big.Rat)
	}
	return new(big.Rat).Set(p.coeffs[len(p.coeffs)-1])
}

// Equal reports whether p and q have identical coefficients.
func (p RatPoly) Equal(q RatPoly) bool {
	if len(p.coeffs) != len(q.coeffs) {
		return false
	}
	for i := range p.coeffs {
		if p.coeffs[i].Cmp(q.coeffs[i]) != 0 {
			return false
		}
	}
	return true
}

// Add returns p + q.
func (p RatPoly) Add(q RatPoly) RatPoly {
	n := max(len(p.coeffs), len(q.coeffs))
	out := make([]*big.Rat, n)
	for i := range out {
		out[i] = new(big.Rat)
		if i < len(p.coeffs) {
			out[i].Add(out[i], p.coeffs[i])
		}
		if i < len(q.coeffs) {
			out[i].Add(out[i], q.coeffs[i])
		}
	}
	return RatPoly{coeffs: trimRat(out)}
}

// Sub returns p - q.
func (p RatPoly) Sub(q RatPoly) RatPoly {
	return p.Add(q.Neg())
}

// Neg returns -p.
func (p RatPoly) Neg() RatPoly {
	out := make([]*big.Rat, len(p.coeffs))
	for i, c := range p.coeffs {
		out[i] = new(big.Rat).Neg(c)
	}
	return RatPoly{coeffs: out}
}

// Scale returns c·p.
func (p RatPoly) Scale(c *big.Rat) RatPoly {
	if c == nil || c.Sign() == 0 || p.IsZero() {
		return RatPoly{}
	}
	out := make([]*big.Rat, len(p.coeffs))
	for i, pc := range p.coeffs {
		out[i] = new(big.Rat).Mul(pc, c)
	}
	return RatPoly{coeffs: out}
}

// Mul returns p · q.
func (p RatPoly) Mul(q RatPoly) RatPoly {
	if p.IsZero() || q.IsZero() {
		return RatPoly{}
	}
	out := make([]*big.Rat, len(p.coeffs)+len(q.coeffs)-1)
	for i := range out {
		out[i] = new(big.Rat)
	}
	tmp := new(big.Rat)
	for i, pc := range p.coeffs {
		if pc.Sign() == 0 {
			continue
		}
		for j, qc := range q.coeffs {
			if qc.Sign() == 0 {
				continue
			}
			tmp.Mul(pc, qc)
			out[i+j].Add(out[i+j], tmp)
		}
	}
	return RatPoly{coeffs: trimRat(out)}
}

// Pow returns p raised to the non-negative integer power k.
// It returns an error if k is negative.
func (p RatPoly) Pow(k int) (RatPoly, error) {
	if k < 0 {
		return RatPoly{}, fmt.Errorf("poly: negative exponent %d", k)
	}
	result := RatPolyFromInt64(1)
	base := p
	for k > 0 {
		if k&1 == 1 {
			result = result.Mul(base)
		}
		base = base.Mul(base)
		k >>= 1
	}
	return result, nil
}

// Derivative returns dp/dx.
func (p RatPoly) Derivative() RatPoly {
	if len(p.coeffs) <= 1 {
		return RatPoly{}
	}
	out := make([]*big.Rat, len(p.coeffs)-1)
	for i := 1; i < len(p.coeffs); i++ {
		out[i-1] = new(big.Rat).Mul(p.coeffs[i], new(big.Rat).SetInt64(int64(i)))
	}
	return RatPoly{coeffs: trimRat(out)}
}

// Eval evaluates p at the rational point x exactly, using Horner's scheme.
func (p RatPoly) Eval(x *big.Rat) *big.Rat {
	result := new(big.Rat)
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		result.Mul(result, x)
		result.Add(result, p.coeffs[i])
	}
	return result
}

// String renders p in human-readable form, highest degree first.
func (p RatPoly) String() string {
	if p.IsZero() {
		return "0"
	}
	var b strings.Builder
	first := true
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		c := p.coeffs[i]
		if c.Sign() == 0 {
			continue
		}
		if !first {
			if c.Sign() > 0 {
				b.WriteString(" + ")
			} else {
				b.WriteString(" - ")
			}
		} else if c.Sign() < 0 {
			b.WriteString("-")
		}
		first = false
		mag := new(big.Rat).Abs(c)
		switch {
		case i == 0:
			b.WriteString(mag.RatString())
		case mag.Cmp(big.NewRat(1, 1)) == 0:
			// omit unit coefficient
		default:
			b.WriteString(mag.RatString())
			b.WriteString("·")
		}
		switch {
		case i == 1:
			b.WriteString("x")
		case i > 1:
			fmt.Fprintf(&b, "x^%d", i)
		}
	}
	return b.String()
}
