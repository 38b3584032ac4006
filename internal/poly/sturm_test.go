package poly

import (
	"math"
	"math/big"
	"sort"
	"testing"
)

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Lo: rat(1, 4), Hi: rat(3, 4)}
	if iv.Mid().Cmp(rat(1, 2)) != 0 {
		t.Errorf("mid = %v, want 1/2", iv.Mid())
	}
	if iv.MidFloat() != 0.5 {
		t.Errorf("midFloat = %v, want 0.5", iv.MidFloat())
	}
}

func TestSturmCountRoots(t *testing.T) {
	// (x-1)(x-2)(x-3) has 3 roots in (0, 4], 2 in (1.5, 4], 0 in (5, 9].
	p := RatPolyFromInt64(-6, 11, -6, 1)
	s, err := NewSturmSequence(p)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		lo, hi *big.Rat
		want   int
	}{
		{rat(0, 1), rat(4, 1), 3},
		{rat(3, 2), rat(4, 1), 2},
		{rat(5, 1), rat(9, 1), 0},
		{rat(0, 1), rat(1, 1), 1}, // root at right endpoint counts
		{rat(1, 1), rat(2, 1), 1}, // root at left endpoint excluded
		{rat(-10, 1), rat(10, 1), 3},
	}
	for _, c := range cases {
		got, err := s.CountRootsIn(c.lo, c.hi)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("roots in (%v, %v] = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
	if _, err := s.CountRootsIn(rat(2, 1), rat(1, 1)); err == nil {
		t.Error("inverted interval: expected error")
	}
}

func TestSturmZeroPolynomial(t *testing.T) {
	if _, err := NewSturmSequence(RatPoly{}); err == nil {
		t.Error("Sturm of zero polynomial: expected error")
	}
}

func TestSturmMultipleRootsCountedOnce(t *testing.T) {
	// (x-1)^2 (x+1): distinct roots are {-1, 1}.
	xm1 := RatPolyFromInt64(-1, 1)
	p := xm1.Mul(xm1).Mul(RatPolyFromInt64(1, 1))
	s, err := NewSturmSequence(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.CountRootsIn(rat(-2, 1), rat(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("distinct roots = %d, want 2", got)
	}
}

func TestSturmConstantPolynomial(t *testing.T) {
	s, err := NewSturmSequence(RatPolyFromInt64(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.CountRootsIn(rat(-100, 1), rat(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("constant polynomial root count = %d, want 0", got)
	}
}

func TestIsolateRootsSeparatesAll(t *testing.T) {
	// Roots at 1/10, 1/2, 9/10 inside [0, 1].
	p := RatPolyAffine(rat(-1, 10), rat(1, 1)).
		Mul(RatPolyAffine(rat(-1, 2), rat(1, 1))).
		Mul(RatPolyAffine(rat(-9, 10), rat(1, 1)))
	ivs, err := IsolateRoots(p, rat(0, 1), rat(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 3 {
		t.Fatalf("isolated %d intervals, want 3", len(ivs))
	}
	roots := []*big.Rat{rat(1, 10), rat(1, 2), rat(9, 10)}
	for _, r := range roots {
		found := 0
		for _, iv := range ivs {
			if r.Cmp(iv.Lo) > 0 && r.Cmp(iv.Hi) <= 0 || (iv.Lo.Cmp(iv.Hi) == 0 && r.Cmp(iv.Lo) == 0) {
				found++
			}
		}
		if found != 1 {
			t.Errorf("root %v contained in %d isolating intervals, want 1", r, found)
		}
	}
}

func TestIsolateRootsNoRoots(t *testing.T) {
	p := RatPolyFromInt64(1, 0, 1) // x^2 + 1
	ivs, err := IsolateRoots(p, rat(-5, 1), rat(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 0 {
		t.Errorf("x^2+1 isolated %d intervals, want 0", len(ivs))
	}
}

func TestIsolateRootsErrors(t *testing.T) {
	if _, err := IsolateRoots(RatPoly{}, rat(0, 1), rat(1, 1)); err == nil {
		t.Error("zero polynomial: expected error")
	}
	if _, err := IsolateRoots(RatPolyFromInt64(-1, 1), rat(1, 1), rat(0, 1)); err == nil {
		t.Error("inverted interval: expected error")
	}
}

// TestIsolateRootsRejectsWrongChain hands the bisection Sturm chains that
// lie about root counts: one member negated, or a chain that counts two
// roots in every interval around 1. Each must end in an error, not in
// bisection without end.
func TestIsolateRootsRejectsWrongChain(t *testing.T) {
	negated := func(p RatPoly, i int) (IntPoly, *SturmSequence) {
		sf, s := squareFreeSturm(p)
		chain := append([]IntPoly(nil), s.chain...)
		chain[i] = chain[i].Neg()
		return sf, &SturmSequence{chain: chain}
	}
	three := RatPolyAffine(rat(-1, 10), rat(1, 1)).
		Mul(RatPolyAffine(rat(-1, 2), rat(1, 1))).
		Mul(RatPolyAffine(rat(-9, 10), rat(1, 1)))
	six := RatPolyFromInt64(720, -1764, 1624, -735, 175, -21, 1) // roots 1..6
	sf3, neg3 := negated(three, 1)
	sf6, neg6 := negated(six, 1)
	one := NewIntPoly([]*big.Int{big.NewInt(1)})
	cases := []struct {
		name  string
		sf    IntPoly
		chain *SturmSequence
	}{
		{"negative count", sf3, neg3},
		{"root at a midpoint", sf6, neg6},
		{"two roots at one point", intPart(RatPolyFromInt64(-2, 0, 1)),
			&SturmSequence{chain: []IntPoly{one, intPart(RatPolyFromInt64(-1, 1)), one}}},
	}
	for _, c := range cases {
		if ivs, err := isolateRoots(c.sf, c.chain, rat(0, 1), rat(8, 1)); err == nil {
			t.Errorf("%s: isolated %d intervals, want an error", c.name, len(ivs))
		}
	}
}

func TestRefineRootSqrt2(t *testing.T) {
	p := RatPolyFromInt64(-2, 0, 1) // x^2 - 2
	ivs, err := IsolateRoots(p, rat(0, 1), rat(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 1 {
		t.Fatalf("isolated %d intervals, want 1", len(ivs))
	}
	tol := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 60))
	refined, err := RefineRoot(p, ivs[0], tol)
	if err != nil {
		t.Fatal(err)
	}
	if w := new(big.Rat).Sub(refined.Hi, refined.Lo); w.Cmp(tol) > 0 {
		t.Errorf("refined width %v exceeds tolerance", w)
	}
	if math.Abs(refined.MidFloat()-math.Sqrt2) > 1e-15 {
		t.Errorf("refined root = %.17g, want sqrt(2) = %.17g", refined.MidFloat(), math.Sqrt2)
	}
}

func TestRefineRootExactHit(t *testing.T) {
	// Root exactly at 1/2; bisection should snap to the exact rational.
	p := RatPolyAffine(rat(-1, 2), rat(1, 1))
	refined, err := RefineRoot(p, Interval{Lo: rat(0, 1), Hi: rat(1, 1)}, rat(1, 1000000))
	if err != nil {
		t.Fatal(err)
	}
	if refined.Lo.Cmp(refined.Hi) != 0 || refined.Lo.Cmp(rat(1, 2)) != 0 {
		t.Errorf("refined = [%v, %v], want exactly 1/2", refined.Lo, refined.Hi)
	}
}

func TestRefineRootAtRightEndpoint(t *testing.T) {
	p := RatPolyAffine(rat(-1, 1), rat(1, 1)) // root at 1
	refined, err := RefineRoot(p, Interval{Lo: rat(0, 1), Hi: rat(1, 1)}, rat(1, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if refined.Lo.Cmp(rat(1, 1)) != 0 || refined.Hi.Cmp(rat(1, 1)) != 0 {
		t.Errorf("refined = [%v, %v], want degenerate at 1", refined.Lo, refined.Hi)
	}
}

func TestRefineRootDegenerateAndErrors(t *testing.T) {
	p := RatPolyFromInt64(-2, 0, 1)
	deg := Interval{Lo: rat(1, 2), Hi: rat(1, 2)}
	got, err := RefineRoot(p, deg, rat(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if got.Lo.Cmp(deg.Lo) != 0 || got.Hi.Cmp(deg.Hi) != 0 {
		t.Error("degenerate interval should be returned unchanged")
	}
	if _, err := RefineRoot(p, deg, rat(0, 1)); err == nil {
		t.Error("zero tolerance: expected error")
	}
	if _, err := RefineRoot(p, deg, nil); err == nil {
		t.Error("nil tolerance: expected error")
	}
}

// refinedRoots isolates the roots of p in (lo, hi] and refines each to
// width tol, returning their midpoints in increasing order.
func refinedRoots(t *testing.T, p RatPoly, lo, hi, tol *big.Rat) []float64 {
	t.Helper()
	ivs, err := IsolateRoots(p, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for _, iv := range ivs {
		refined, err := RefineRoot(p, iv, tol)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, refined.MidFloat())
	}
	sort.Float64s(out)
	return out
}

func TestRootsEndToEnd(t *testing.T) {
	// Wilkinson-lite: roots at 1..6 of Π (x-i).
	p := RatPolyFromInt64(1)
	for i := int64(1); i <= 6; i++ {
		p = p.Mul(RatPolyAffine(big.NewRat(-i, 1), rat(1, 1)))
	}
	tol := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 50))
	roots := refinedRoots(t, p, rat(0, 1), rat(10, 1), tol)
	if len(roots) != 6 {
		t.Fatalf("found %d roots, want 6: %v", len(roots), roots)
	}
	for i, r := range roots {
		if math.Abs(r-float64(i+1)) > 1e-12 {
			t.Errorf("root %d = %v, want %d", i, r, i+1)
		}
	}
}

func TestRootsPaperOptimalityConditionN3(t *testing.T) {
	// Section 5.2.1: on β ∈ (1/2, 1] the derivative condition is
	// 9 - 21β + (21/2)β² = 0, i.e. β² - 2β + 6/7 = 0, whose root in (0,1)
	// is 1 - sqrt(1/7) ≈ 0.6220355269907727.
	p, err := RatPolyFromFracs([]int64{6, -2, 1}, []int64{7, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tol := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 60))
	roots := refinedRoots(t, p, rat(0, 1), rat(1, 1), tol)
	if len(roots) != 1 {
		t.Fatalf("found %d roots in (0,1), want 1: %v", len(roots), roots)
	}
	want := 1 - math.Sqrt(1.0/7.0)
	if math.Abs(roots[0]-want) > 1e-14 {
		t.Errorf("root = %.17g, want 1-sqrt(1/7) = %.17g", roots[0], want)
	}
}
