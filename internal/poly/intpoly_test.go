package poly

import (
	"math/big"
	"math/rand/v2"
	"sort"
	"testing"
)

// ratOf lifts an integer polynomial to a rational one.
func ratOf(p IntPoly) RatPoly { return p.Over(big.NewInt(1)) }

// positiveMultiple reports whether a = λ·b for some rational λ > 0.
func positiveMultiple(a, b RatPoly) bool {
	if a.Degree() != b.Degree() || a.IsZero() {
		return false
	}
	lambda := new(big.Rat).Quo(a.LeadingCoeff(), b.LeadingCoeff())
	return lambda.Sign() > 0 && a.Equal(b.Scale(lambda))
}

// rationalSturmChain is the canonical chain over the rationals: the
// square-free part, its derivative, then negated remainders.
func rationalSturmChain(p RatPoly) []RatPoly {
	sf := p.SquareFree()
	chain := []RatPoly{sf}
	if sf.Degree() < 1 {
		return chain
	}
	chain = append(chain, sf.Derivative())
	for chain[len(chain)-1].Degree() > 0 {
		_, rem, _ := chain[len(chain)-2].Divide(chain[len(chain)-1])
		if rem.IsZero() {
			break
		}
		chain = append(chain, rem.Neg())
	}
	return chain
}

// productPoly returns c·Π (x − roots[i])^mult[i].
func productPoly(c *big.Rat, roots []*big.Rat, mult []int) RatPoly {
	p := NewRatPoly([]*big.Rat{c})
	for i, r := range roots {
		for range mult[i] {
			p = p.Mul(RatPolyAffine(new(big.Rat).Neg(r), big.NewRat(1, 1)))
		}
	}
	return p
}

// randomRootedPoly draws c·Π(x − r_i)^(m_i) with 1–5 distinct rational
// roots: random fractions, the endpoints lo and hi, and the dyadic points
// the bisection of [lo, hi] visits first, so roots land on endpoints and
// on bisection midpoints. The leading coefficient c may be negative.
func randomRootedPoly(rng *rand.Rand, lo, hi *big.Rat) (RatPoly, []*big.Rat) {
	span := new(big.Rat).Sub(hi, lo)
	dyadic := func(num, den int64) *big.Rat { // lo + (num/den)·span
		r := new(big.Rat).Mul(span, big.NewRat(num, den))
		return r.Add(r, lo)
	}
	pool := []*big.Rat{
		new(big.Rat).Set(lo), new(big.Rat).Set(hi),
		dyadic(1, 2), dyadic(1, 4), dyadic(3, 4), dyadic(3, 8), dyadic(5, 16),
		dyadic(-1, 2), dyadic(3, 2), // outside the interval
	}
	seen := map[string]bool{}
	var roots []*big.Rat
	var mult []int
	for len(roots) < 1+rng.IntN(5) {
		var r *big.Rat
		if rng.IntN(2) == 0 {
			r = pool[rng.IntN(len(pool))]
		} else {
			r = dyadic(rng.Int64N(41)-10, 1+rng.Int64N(30))
		}
		if seen[r.RatString()] {
			continue
		}
		seen[r.RatString()] = true
		roots = append(roots, r)
		mult = append(mult, 1+rng.IntN(3))
	}
	c := big.NewRat(1+rng.Int64N(9), 1+rng.Int64N(7))
	if rng.IntN(2) == 0 {
		c.Neg(c)
	}
	return productPoly(c, roots, mult), roots
}

// TestSturmChainIsPositiveMultipleOfRationalChain checks the integer
// pseudo-remainder chain member by member against the rational chain: each
// must be a positive multiple, which is what keeps every sign-variation
// count unchanged.
func TestSturmChainIsPositiveMultipleOfRationalChain(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 2))
	// Sparse polynomials skip elimination steps, so a pseudo-remainder can
	// take an odd power of a negative leading coefficient.
	polys := []RatPoly{
		RatPolyFromInt64(2, 0, 0, -1),
		RatPolyFromInt64(-1, 3, 0, 0, 0, -1),
		RatPolyFromInt64(-2, 0, 0, 0, 1),
		RatPolyFromInt64(2, 0, 3, 0, -1),
		RatPolyFromInt64(1, 0, 0, 0, 0, 0, -1),
		RatPolyFromInt64(-3, 1, 0, 0, 0, -7, 0, 2),
	}
	for trial := 0; trial < 200; trial++ {
		p, _ := randomRootedPoly(rng, big.NewRat(-1, 3), big.NewRat(5, 4))
		if rng.IntN(3) == 0 { // an irreducible quadratic factor adds complex roots
			p = p.Mul(RatPolyFromInt64(int64(1+rng.IntN(5)), 0, 1))
		}
		polys = append(polys, p)
	}
	for _, p := range polys {
		want := rationalSturmChain(p)
		s, err := NewSturmSequence(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.chain) != len(want) {
			t.Fatalf("p = %v: chain length %d, want %d", p, len(s.chain), len(want))
		}
		for i := range want {
			if !positiveMultiple(ratOf(s.chain[i]), want[i]) {
				t.Fatalf("p = %v: member %d = %v is not a positive multiple of %v", p, i, ratOf(s.chain[i]), want[i])
			}
		}
	}
}

// TestIsolateAndRefineRationalRoots checks IsolateRoots and RefineRoot on
// polynomials with known rational roots of any multiplicity: exactly the
// distinct roots in (lo, hi] are found, one per interval, and each refined
// enclosure still holds its root and is at most tol wide.
func TestIsolateAndRefineRationalRoots(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 3))
	tol := new(big.Rat).SetFrac64(1, 1<<40)
	intervals := [][2]*big.Rat{
		{big.NewRat(0, 1), big.NewRat(1, 1)},
		{big.NewRat(-1, 1), big.NewRat(1, 1)},
		{big.NewRat(1, 3), big.NewRat(7, 5)},
	}
	contains := func(iv Interval, r *big.Rat) bool {
		if iv.Lo.Cmp(iv.Hi) == 0 {
			return iv.Lo.Cmp(r) == 0
		}
		return iv.Lo.Cmp(r) < 0 && r.Cmp(iv.Hi) <= 0
	}
	for trial := 0; trial < 300; trial++ {
		lo, hi := intervals[trial%len(intervals)][0], intervals[trial%len(intervals)][1]
		p, roots := randomRootedPoly(rng, lo, hi)
		var inside []*big.Rat
		for _, r := range roots {
			if r.Cmp(lo) > 0 && r.Cmp(hi) <= 0 {
				inside = append(inside, r)
			}
		}
		sort.Slice(inside, func(i, j int) bool { return inside[i].Cmp(inside[j]) < 0 })
		ivs, err := IsolateRoots(p, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(ivs) != len(inside) {
			t.Fatalf("p = %v on (%v, %v]: %d intervals, want %d roots %v", p, lo, hi, len(ivs), len(inside), inside)
		}
		for _, r := range inside {
			hits := 0
			for _, iv := range ivs {
				if contains(iv, r) {
					hits++
					refined, err := RefineRoot(p, iv, tol)
					if err != nil {
						t.Fatal(err)
					}
					if !contains(refined, r) {
						t.Errorf("p = %v: refined [%v, %v] lost root %v", p, refined.Lo, refined.Hi, r)
					}
					if w := new(big.Rat).Sub(refined.Hi, refined.Lo); w.Cmp(tol) > 0 {
						t.Errorf("p = %v: refined width %v exceeds %v", p, w, tol)
					}
				}
			}
			if hits != 1 {
				t.Errorf("p = %v on (%v, %v]: root %v in %d intervals, want 1", p, lo, hi, r, hits)
			}
		}
	}
}

// TestIntPolyArithmeticMatchesRatPoly checks the exported integer
// operations against their rational counterparts.
func TestIntPolyArithmeticMatchesRatPoly(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 4))
	randInt := func() IntPoly {
		cs := make([]*big.Int, rng.IntN(6))
		for i := range cs {
			cs[i] = big.NewInt(rng.Int64N(2001) - 1000)
		}
		return NewIntPoly(cs)
	}
	for trial := 0; trial < 200; trial++ {
		a, b := randInt(), randInt()
		c := big.NewInt(rng.Int64N(21) - 10)
		den := big.NewInt(1 + rng.Int64N(12))
		ra, rb := ratOf(a), ratOf(b)
		if !ratOf(a.Add(b)).Equal(ra.Add(rb)) || !ratOf(a.Sub(b)).Equal(ra.Sub(rb)) {
			t.Fatalf("%v ± %v disagrees with RatPoly", ra, rb)
		}
		if !ratOf(a.Mul(b)).Equal(ra.Mul(rb)) {
			t.Fatalf("%v · %v disagrees with RatPoly", ra, rb)
		}
		if !ratOf(a.Scale(c)).Equal(ra.Scale(new(big.Rat).SetInt(c))) {
			t.Fatalf("%v · %v disagrees with RatPoly", c, ra)
		}
		if !a.Over(den).Equal(ra.Scale(new(big.Rat).SetFrac(big.NewInt(1), den))) {
			t.Fatalf("%v / %v disagrees with RatPoly", ra, den)
		}
		if a.Degree() != ra.Degree() || a.IsZero() != ra.IsZero() {
			t.Fatalf("%v: degree %d, want %d", ra, a.Degree(), ra.Degree())
		}
	}
}
