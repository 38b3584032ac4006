package poly

import (
	"math/big"
	"testing"
	"testing/quick"
)

func rat(a, b int64) *big.Rat { return big.NewRat(a, b) }

func TestRatPolyConstructorsAndAccessors(t *testing.T) {
	p := RatPolyFromInt64(1, 0, 3) // 1 + 3x^2
	if p.Degree() != 2 {
		t.Errorf("degree = %d, want 2", p.Degree())
	}
	if p.Coeff(0).Cmp(rat(1, 1)) != 0 || p.Coeff(1).Sign() != 0 || p.Coeff(2).Cmp(rat(3, 1)) != 0 {
		t.Errorf("coefficients wrong: %v", p.Coeffs())
	}
	if p.Coeff(-1).Sign() != 0 || p.Coeff(5).Sign() != 0 {
		t.Error("out-of-range Coeff should be 0")
	}
	if p.LeadingCoeff().Cmp(rat(3, 1)) != 0 {
		t.Errorf("leading coeff = %v, want 3", p.LeadingCoeff())
	}

	z := RatPolyFromInt64()
	if !z.IsZero() || z.Degree() != -1 || z.LeadingCoeff().Sign() != 0 {
		t.Error("zero polynomial invariants violated")
	}
	trimmed := RatPolyFromInt64(2, 1, 0, 0)
	if trimmed.Degree() != 1 {
		t.Errorf("trailing zeros not trimmed: degree %d", trimmed.Degree())
	}
}

func TestNewRatPolyCopiesAndHandlesNil(t *testing.T) {
	c := []*big.Rat{rat(1, 2), nil, rat(3, 4)}
	p := NewRatPoly(c)
	c[0].SetInt64(99) // mutating the input must not affect p
	if p.Coeff(0).Cmp(rat(1, 2)) != 0 {
		t.Error("NewRatPoly did not deep-copy coefficients")
	}
	if p.Coeff(1).Sign() != 0 {
		t.Error("nil coefficient should read as 0")
	}
}

func TestRatPolyFromFracs(t *testing.T) {
	p, err := RatPolyFromFracs([]int64{1, -3}, []int64{6, 2}) // 1/6 - 3/2 x
	if err != nil {
		t.Fatal(err)
	}
	if p.Coeff(0).Cmp(rat(1, 6)) != 0 || p.Coeff(1).Cmp(rat(-3, 2)) != 0 {
		t.Errorf("wrong coefficients: %v", p)
	}
	if _, err := RatPolyFromFracs([]int64{1}, []int64{1, 2}); err == nil {
		t.Error("length mismatch: expected error")
	}
	if _, err := RatPolyFromFracs([]int64{1}, []int64{0}); err == nil {
		t.Error("zero denominator: expected error")
	}
}

func TestRatPolyArithmetic(t *testing.T) {
	p := RatPolyFromInt64(1, 2)  // 1 + 2x
	q := RatPolyFromInt64(3, -2) // 3 - 2x
	sum := p.Add(q)
	if !sum.Equal(RatPolyFromInt64(4)) {
		t.Errorf("(1+2x) + (3-2x) = %v, want 4", sum)
	}
	diff := p.Sub(q)
	if !diff.Equal(RatPolyFromInt64(-2, 4)) {
		t.Errorf("(1+2x) - (3-2x) = %v, want -2+4x", diff)
	}
	prod := p.Mul(q)
	if !prod.Equal(RatPolyFromInt64(3, 4, -4)) {
		t.Errorf("(1+2x)(3-2x) = %v, want 3+4x-4x^2", prod)
	}
	if !p.Mul(RatPoly{}).IsZero() || !(RatPoly{}).Mul(p).IsZero() {
		t.Error("multiplication by zero polynomial should be zero")
	}
	if !p.Scale(rat(0, 1)).IsZero() {
		t.Error("scaling by 0 should give zero polynomial")
	}
	if !p.Scale(nil).IsZero() {
		t.Error("scaling by nil should give zero polynomial")
	}
	if !p.Scale(rat(2, 1)).Equal(RatPolyFromInt64(2, 4)) {
		t.Error("Scale(2) wrong")
	}
	if !p.Neg().Equal(RatPolyFromInt64(-1, -2)) {
		t.Error("Neg wrong")
	}
}

func TestRatPolyPow(t *testing.T) {
	p := RatPolyFromInt64(1, 1) // 1 + x
	cube, err := p.Pow(3)
	if err != nil {
		t.Fatal(err)
	}
	if !cube.Equal(RatPolyFromInt64(1, 3, 3, 1)) {
		t.Errorf("(1+x)^3 = %v, want 1+3x+3x^2+x^3", cube)
	}
	one, err := p.Pow(0)
	if err != nil {
		t.Fatal(err)
	}
	if !one.Equal(RatPolyFromInt64(1)) {
		t.Errorf("(1+x)^0 = %v, want 1", one)
	}
	if _, err := p.Pow(-1); err == nil {
		t.Error("negative exponent: expected error")
	}
	zeroSq, err := RatPoly{}.Pow(2)
	if err != nil || !zeroSq.IsZero() {
		t.Error("0^2 should be zero polynomial")
	}
}

func TestRatPolyCalculus(t *testing.T) {
	p := RatPolyFromInt64(5, 0, 3, 2) // 5 + 3x^2 + 2x^3
	d := p.Derivative()
	if !d.Equal(RatPolyFromInt64(0, 6, 6)) {
		t.Errorf("derivative = %v, want 6x+6x^2", d)
	}
	if !RatPolyFromInt64(7).Derivative().IsZero() {
		t.Error("derivative of constant should be zero")
	}
}

func TestRatPolyEval(t *testing.T) {
	p := RatPolyFromInt64(1, -2, 1) // (x-1)^2
	if p.Eval(rat(1, 1)).Sign() != 0 {
		t.Error("(x-1)^2 at 1 should be 0")
	}
	if p.Eval(rat(3, 1)).Cmp(rat(4, 1)) != 0 {
		t.Error("(x-1)^2 at 3 should be 4")
	}
	if (RatPoly{}).Eval(rat(5, 1)).Sign() != 0 {
		t.Error("zero polynomial should evaluate to 0")
	}
}

func TestRatPolyDivide(t *testing.T) {
	// x^3 - 1 = (x - 1)(x^2 + x + 1).
	p := RatPolyFromInt64(-1, 0, 0, 1)
	q := RatPolyFromInt64(-1, 1)
	quo, rem, err := p.Divide(q)
	if err != nil {
		t.Fatal(err)
	}
	if !quo.Equal(RatPolyFromInt64(1, 1, 1)) || !rem.IsZero() {
		t.Errorf("x^3-1 / (x-1): quo=%v rem=%v", quo, rem)
	}
	// Degree of dividend smaller than divisor.
	quo, rem, err = q.Divide(p)
	if err != nil {
		t.Fatal(err)
	}
	if !quo.IsZero() || !rem.Equal(q) {
		t.Errorf("small/large division: quo=%v rem=%v", quo, rem)
	}
	if _, _, err := p.Divide(RatPoly{}); err == nil {
		t.Error("division by zero polynomial: expected error")
	}
}

func TestRatPolyDivideRoundTripProperty(t *testing.T) {
	f := func(a0, a1, a2, a3, b0, b1 int8) bool {
		p := RatPolyFromInt64(int64(a0), int64(a1), int64(a2), int64(a3))
		q := RatPolyFromInt64(int64(b0), int64(b1), 1) // monic, never zero
		quo, rem, err := p.Divide(q)
		if err != nil {
			return false
		}
		if !rem.IsZero() && rem.Degree() >= q.Degree() {
			return false
		}
		return quo.Mul(q).Add(rem).Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatPolyGCD(t *testing.T) {
	// gcd((x-1)^2 (x+2), (x-1)(x+3)) = x - 1 (monic).
	xm1 := RatPolyFromInt64(-1, 1)
	p := xm1.Mul(xm1).Mul(RatPolyFromInt64(2, 1))
	q := xm1.Mul(RatPolyFromInt64(3, 1))
	g := p.GCD(q)
	if !g.Equal(xm1) {
		t.Errorf("gcd = %v, want x-1", g)
	}
	if !p.GCD(RatPoly{}).Equal(p.Scale(new(big.Rat).Inv(p.LeadingCoeff()))) {
		t.Error("gcd(p, 0) should be monic p")
	}
	if !(RatPoly{}).GCD(RatPoly{}).IsZero() {
		t.Error("gcd(0, 0) should be 0")
	}
}

func TestRatPolySquareFree(t *testing.T) {
	xm1 := RatPolyFromInt64(-1, 1)
	xp2 := RatPolyFromInt64(2, 1)
	p := xm1.Mul(xm1).Mul(xm1).Mul(xp2) // (x-1)^3 (x+2)
	sf := p.SquareFree()
	want := xm1.Mul(xp2)
	// SquareFree result can differ by a constant; compare monic forms.
	sfMonic := sf.Scale(new(big.Rat).Inv(sf.LeadingCoeff()))
	wantMonic := want.Scale(new(big.Rat).Inv(want.LeadingCoeff()))
	if !sfMonic.Equal(wantMonic) {
		t.Errorf("square-free part = %v, want %v", sfMonic, wantMonic)
	}
	lin := RatPolyFromInt64(4, 2)
	if !lin.SquareFree().Equal(lin) {
		t.Error("square-free of degree-1 polynomial should be itself")
	}
}

func TestRatPolyString(t *testing.T) {
	cases := []struct {
		p    RatPoly
		want string
	}{
		{RatPoly{}, "0"},
		{RatPolyFromInt64(3), "3"},
		{RatPolyFromInt64(0, 1), "x"},
		{RatPolyFromInt64(-1, 0, 2), "2·x^2 - 1"},
		{NewRatPoly([]*big.Rat{rat(1, 6), rat(-3, 2)}), "-3/2·x + 1/6"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestRatPolyRingAxiomsProperty(t *testing.T) {
	mk := func(a, b, c int8) RatPoly {
		return RatPolyFromInt64(int64(a), int64(b), int64(c))
	}
	f := func(a0, a1, a2, b0, b1, b2, c0, c1, c2 int8) bool {
		p, q, r := mk(a0, a1, a2), mk(b0, b1, b2), mk(c0, c1, c2)
		if !p.Add(q).Equal(q.Add(p)) {
			return false
		}
		if !p.Mul(q).Equal(q.Mul(p)) {
			return false
		}
		if !p.Mul(q.Add(r)).Equal(p.Mul(q).Add(p.Mul(r))) {
			return false
		}
		return p.Mul(q).Mul(r).Equal(p.Mul(q.Mul(r)))
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
