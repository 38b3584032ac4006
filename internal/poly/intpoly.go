package poly

import (
	"math/big"
)

// IntPoly is a univariate polynomial with integer coefficients, stored in
// ascending order of degree with no trailing zero terms. Like RatPoly it is
// immutable by convention. Integer arithmetic skips the GCD normalisation
// every big.Rat operation performs, so exact expansions that share one
// denominator run over IntPoly and convert once with Over.
type IntPoly struct {
	coeffs []*big.Int
}

// NewIntPoly builds a polynomial from ascending coefficients. The input
// slice is deep-copied (nil entries read as zero); trailing zeros are
// trimmed.
func NewIntPoly(coeffs []*big.Int) IntPoly {
	cp := make([]*big.Int, len(coeffs))
	for i, c := range coeffs {
		cp[i] = new(big.Int)
		if c != nil {
			cp[i].Set(c)
		}
	}
	return IntPoly{coeffs: trimInt(cp)}
}

func trimInt(cs []*big.Int) []*big.Int {
	n := len(cs)
	for n > 0 && cs[n-1].Sign() == 0 {
		n--
	}
	return cs[:n]
}

// Degree returns the degree of p, with -1 for the zero polynomial.
func (p IntPoly) Degree() int { return len(p.coeffs) - 1 }

// IsZero reports whether p is the zero polynomial.
func (p IntPoly) IsZero() bool { return len(p.coeffs) == 0 }

// Add returns p + q.
func (p IntPoly) Add(q IntPoly) IntPoly {
	out := make([]*big.Int, max(len(p.coeffs), len(q.coeffs)))
	for i := range out {
		out[i] = new(big.Int)
		if i < len(p.coeffs) {
			out[i].Add(out[i], p.coeffs[i])
		}
		if i < len(q.coeffs) {
			out[i].Add(out[i], q.coeffs[i])
		}
	}
	return IntPoly{coeffs: trimInt(out)}
}

// Sub returns p - q.
func (p IntPoly) Sub(q IntPoly) IntPoly { return p.Add(q.Neg()) }

// Neg returns -p.
func (p IntPoly) Neg() IntPoly {
	out := make([]*big.Int, len(p.coeffs))
	for i, c := range p.coeffs {
		out[i] = new(big.Int).Neg(c)
	}
	return IntPoly{coeffs: out}
}

// Scale returns c·p.
func (p IntPoly) Scale(c *big.Int) IntPoly {
	if c.Sign() == 0 || p.IsZero() {
		return IntPoly{}
	}
	out := make([]*big.Int, len(p.coeffs))
	for i, pc := range p.coeffs {
		out[i] = new(big.Int).Mul(pc, c)
	}
	return IntPoly{coeffs: out}
}

// Mul returns p · q.
func (p IntPoly) Mul(q IntPoly) IntPoly {
	if p.IsZero() || q.IsZero() {
		return IntPoly{}
	}
	out := make([]*big.Int, len(p.coeffs)+len(q.coeffs)-1)
	for i := range out {
		out[i] = new(big.Int)
	}
	tmp := new(big.Int)
	for i, pc := range p.coeffs {
		if pc.Sign() == 0 {
			continue
		}
		for j, qc := range q.coeffs {
			out[i+j].Add(out[i+j], tmp.Mul(pc, qc))
		}
	}
	return IntPoly{coeffs: trimInt(out)}
}

// Over returns the rational polynomial p/den; den must be non-zero.
func (p IntPoly) Over(den *big.Int) RatPoly {
	out := make([]*big.Rat, len(p.coeffs))
	for i, c := range p.coeffs {
		out[i] = new(big.Rat).SetFrac(c, den)
	}
	return RatPoly{coeffs: out}
}

// intPart returns the primitive integer polynomial that is a positive
// multiple of p: denominators cleared by their least common multiple, then
// the content divided out.
func intPart(p RatPoly) IntPoly {
	lcm := big.NewInt(1)
	g := new(big.Int)
	for _, c := range p.coeffs {
		d := c.Denom()
		g.GCD(nil, nil, lcm, d)
		lcm.Mul(lcm, d)
		lcm.Quo(lcm, g)
	}
	out := make([]*big.Int, len(p.coeffs))
	for i, c := range p.coeffs {
		out[i] = new(big.Int).Quo(lcm, c.Denom())
		out[i].Mul(out[i], c.Num())
	}
	return IntPoly{coeffs: out}.primitive()
}

// primitive divides p by its content, the positive GCD of its
// coefficients, so the result is a positive multiple of p.
func (p IntPoly) primitive() IntPoly {
	if p.IsZero() {
		return p
	}
	content := new(big.Int)
	for _, c := range p.coeffs {
		content.GCD(nil, nil, content, c)
		if content.IsInt64() && content.Int64() == 1 {
			return p
		}
	}
	out := make([]*big.Int, len(p.coeffs))
	for i, c := range p.coeffs {
		out[i] = new(big.Int).Quo(c, content)
	}
	return IntPoly{coeffs: out}
}

func (p IntPoly) derivative() IntPoly {
	if len(p.coeffs) <= 1 {
		return IntPoly{}
	}
	out := make([]*big.Int, len(p.coeffs)-1)
	for i := 1; i < len(p.coeffs); i++ {
		out[i-1] = new(big.Int).Mul(p.coeffs[i], big.NewInt(int64(i)))
	}
	return IntPoly{coeffs: trimInt(out)}
}

// pseudoRem returns |lc(b)|^e·a mod b for the number e of elimination steps
// taken: a positive multiple of the rational remainder of a by b, computed
// without leaving the integers. b must be non-zero.
func pseudoRem(a, b IntPoly) IntPoly {
	r := NewIntPoly(a.coeffs).coeffs
	db := b.Degree()
	lead := b.coeffs[db]
	absLead := new(big.Int).Abs(lead)
	f, tmp := new(big.Int), new(big.Int)
	for d := len(r) - 1; d >= db; d-- {
		if r[d].Sign() == 0 {
			continue
		}
		// r ← |lc(b)|·r − sign(lc(b))·r_d·x^(d−db)·b cancels the x^d term.
		f.Set(r[d])
		if lead.Sign() < 0 {
			f.Neg(f)
		}
		for i := 0; i < d; i++ {
			r[i].Mul(r[i], absLead)
		}
		for j := 0; j < db; j++ {
			r[d-db+j].Sub(r[d-db+j], tmp.Mul(f, b.coeffs[j]))
		}
		r[d].SetInt64(0)
	}
	return IntPoly{coeffs: trimInt(r)}
}

// quoExact returns a/b for a b that divides a over the integers (a primitive
// b dividing a over the rationals does, by Gauss's lemma).
func quoExact(a, b IntPoly) IntPoly {
	r := NewIntPoly(a.coeffs).coeffs
	db := b.Degree()
	q := make([]*big.Int, len(r)-db)
	tmp := new(big.Int)
	for d := len(r) - 1; d >= db; d-- {
		q[d-db] = new(big.Int).Quo(r[d], b.coeffs[db])
		for j := 0; j <= db; j++ {
			r[d-db+j].Sub(r[d-db+j], tmp.Mul(q[d-db], b.coeffs[j]))
		}
	}
	return IntPoly{coeffs: trimInt(q)}
}

// signAt returns the sign of p(x). With x = a/b in lowest terms (b > 0) it
// evaluates the homogeneous form Σ c_i·a^i·b^(d−i) = b^d·p(x) by Horner's
// scheme, so denominators are cleared once and no step normalises.
func (p IntPoly) signAt(x *big.Rat) int {
	d := p.Degree()
	if d < 0 {
		return 0
	}
	a, b := x.Num(), x.Denom()
	acc := new(big.Int).Set(p.coeffs[d])
	bPow := big.NewInt(1)
	tmp := new(big.Int)
	for i := d - 1; i >= 0; i-- {
		bPow.Mul(bPow, b)
		acc.Mul(acc, a)
		acc.Add(acc, tmp.Mul(p.coeffs[i], bPow))
	}
	return acc.Sign()
}
