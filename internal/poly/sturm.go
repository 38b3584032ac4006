package poly

import (
	"fmt"
	"math/big"
	"math/bits"
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

// SturmSequence holds the Sturm chain of a square-free polynomial and
// answers exact root-counting queries on rational intervals. The chain is a
// primitive pseudo-remainder sequence over the integers: each member is a
// positive multiple of the corresponding member of the canonical rational
// chain (p, p', −rem, …), so every sign-variation count is the same while
// no coefficient is ever a fraction.
type SturmSequence struct {
	chain []IntPoly
}

// squareFreeSturm returns the primitive square-free part sf of p, a
// positive multiple of p/gcd(p, p'), together with its Sturm chain. The
// chain of p is itself a primitive remainder sequence of p and p', so its
// last member is gcd(p, p'): when that is a constant, p is square-free and
// the chain is already the answer; otherwise sf = p/gcd gets its own chain.
func squareFreeSturm(p RatPoly) (IntPoly, *SturmSequence) {
	sf := intPart(p)
	s := newSturm(sf)
	g := s.chain[len(s.chain)-1]
	if g.Degree() < 1 {
		return sf, s
	}
	if g.coeffs[g.Degree()].Sign() < 0 {
		g = g.Neg()
	}
	sf = quoExact(sf, g)
	return sf, newSturm(sf)
}

// newSturm builds the chain of a square-free sf: sf, sf', then the negated
// pseudo-remainders made primitive, until a constant or an exact division.
func newSturm(sf IntPoly) *SturmSequence {
	chain := []IntPoly{sf}
	if sf.Degree() >= 1 {
		chain = append(chain, sf.derivative().primitive())
		for chain[len(chain)-1].Degree() > 0 {
			rem := pseudoRem(chain[len(chain)-2], chain[len(chain)-1])
			if rem.IsZero() {
				break
			}
			chain = append(chain, rem.Neg().primitive())
		}
	}
	return &SturmSequence{chain: chain}
}

// signVariations counts sign changes of the chain evaluated at x,
// ignoring zeros, per Sturm's theorem.
func (s *SturmSequence) signVariations(x *big.Rat) int {
	variations := 0
	prev := 0
	for _, q := range s.chain {
		sign := q.signAt(x)
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

// IsolateRoots returns disjoint rational intervals, each containing exactly
// one distinct real root of p in (lo, hi]. Roots lying exactly at rational
// subdivision points are returned as degenerate intervals with Lo == Hi.
// It returns an error if the Sturm counts contradict themselves (see
// isolateRoots).
func IsolateRoots(p RatPoly, lo, hi *big.Rat) ([]Interval, error) {
	if p.IsZero() {
		return nil, fmt.Errorf("poly: cannot isolate roots of the zero polynomial")
	}
	if lo.Cmp(hi) > 0 {
		return nil, fmt.Errorf("poly: inverted interval [%v, %v]", lo, hi)
	}
	sf, s := squareFreeSturm(p)
	return isolateRoots(sf, s, lo, hi)
}

// sepBits returns a B with 2^−B below the distance between any two
// distinct roots of the square-free integer polynomial p of degree d.
// Mahler's bound gives a separation above √3·d^−(d+2)/2·‖p‖₂^−(d−1): the
// discriminant of a square-free integer polynomial is a non-zero integer
// and the Mahler measure is at most ‖p‖₂. Hence
// B = ⌈(d+2)/2·log₂ d⌉ + (d−1)·⌈log₂ ‖p‖₂⌉, from bit lengths.
func sepBits(p IntPoly) int {
	d := p.Degree()
	sq, tmp := new(big.Int), new(big.Int)
	for _, c := range p.coeffs {
		sq.Add(sq, tmp.Mul(c, c))
	}
	normBits := (sq.BitLen() + 1) / 2
	return ((d+2)*bits.Len(uint(d))+1)/2 + (d-1)*normBits
}

// isolateRoots bisects (lo, hi] with s, the Sturm chain of the square-free
// sf. A right chain counts between 0 and deg sf roots in every interval,
// and no interval narrower than the root separation holds two roots, so
// bisection ends by depth ⌈log₂(hi − lo)⌉ + sepBits(sf). A count outside
// that range or a bisection past that depth means the chain is wrong, and
// isolateRoots returns an error instead of subdividing without end.
func isolateRoots(sf IntPoly, s *SturmSequence, lo, hi *big.Rat) ([]Interval, error) {
	deg := sf.Degree()
	if deg < 1 {
		return nil, nil
	}
	width := new(big.Rat).Sub(hi, lo)
	maxDepth := sepBits(sf)
	if width.Sign() > 0 {
		// width < 2^(len(num) − len(den) + 1).
		maxDepth += width.Num().BitLen() - width.Denom().BitLen() + 1
	}
	half := big.NewRat(1, 2)
	var out []Interval
	var recurse func(a, b *big.Rat, va, vb, depth int) error
	// va and vb are the sign variations at a and b; (a, b] holds va − vb
	// roots and is at most (hi − lo)/2^depth wide.
	recurse = func(a, b *big.Rat, va, vb, depth int) error {
		switch n := va - vb; {
		case n < 0 || n > deg:
			return fmt.Errorf("poly: Sturm chain counts %d roots of a degree-%d polynomial in (%s, %s]", n, deg, a.RatString(), b.RatString())
		case n == 0:
			return nil
		case n == 1:
			out = append(out, Interval{Lo: new(big.Rat).Set(a), Hi: new(big.Rat).Set(b)})
			return nil
		case depth >= maxDepth:
			return fmt.Errorf("poly: Sturm chain counts %d roots in (%s, %s], narrower than their separation bound", n, a.RatString(), b.RatString())
		}
		mid := new(big.Rat).Add(a, b)
		mid.Mul(mid, half)
		vm := s.signVariations(mid)
		if sf.signAt(mid) == 0 {
			// The midpoint is itself a root: report it as a degenerate
			// interval, then shrink the left half so that (a, leftCut]
			// no longer contains the midpoint root. The right half
			// (mid, b] already excludes it.
			out = append(out, Interval{Lo: new(big.Rat).Set(mid), Hi: new(big.Rat).Set(mid)})
			w := new(big.Rat).Sub(mid, a)
			leftCut := new(big.Rat)
			var vl int
			for d := depth + 2; ; d++ { // w ≤ (hi − lo)/2^d after halving
				w.Mul(w, half)
				leftCut.Sub(mid, w)
				vl = s.signVariations(leftCut)
				if vl-vm == 1 { // only the midpoint root remains to the right of leftCut
					break
				}
				if vl-vm < 1 || d >= maxDepth {
					return fmt.Errorf("poly: Sturm chain counts %d roots in (%s, %s], which holds the root %s", vl-vm, leftCut.RatString(), mid.RatString(), mid.RatString())
				}
			}
			if err := recurse(a, leftCut, va, vl, depth+1); err != nil {
				return err
			}
			return recurse(mid, b, vm, vb, depth+1)
		}
		if err := recurse(a, mid, va, vm, depth+1); err != nil {
			return err
		}
		return recurse(mid, b, vm, vb, depth+1)
	}
	if err := recurse(lo, hi, s.signVariations(lo), s.signVariations(hi), 0); err != nil {
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
	if iv.Lo.Cmp(iv.Hi) == 0 {
		return Interval{Lo: new(big.Rat).Set(iv.Lo), Hi: new(big.Rat).Set(iv.Hi)}, nil
	}
	sf, _ := squareFreeSturm(p)
	return refineRoot(sf, iv, tol), nil
}

// refineRoot bisects iv against the square-free sf until its width is at
// most tol, testing each midpoint's sign against the sign at the right end.
func refineRoot(sf IntPoly, iv Interval, tol *big.Rat) Interval {
	lo := new(big.Rat).Set(iv.Lo)
	hi := new(big.Rat).Set(iv.Hi)
	sHi := sf.signAt(hi)
	if sHi == 0 {
		// The unique root of (Lo, Hi] sits exactly at the right endpoint.
		return Interval{Lo: new(big.Rat).Set(hi), Hi: hi}
	}
	width := new(big.Rat).Sub(hi, lo)
	half := big.NewRat(1, 2)
	for width.Cmp(tol) > 0 {
		mid := new(big.Rat).Add(lo, hi)
		mid.Mul(mid, half)
		sMid := sf.signAt(mid)
		if sMid == 0 {
			return Interval{Lo: mid, Hi: new(big.Rat).Set(mid)}
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
	return Interval{Lo: lo, Hi: hi}
}
