package poly

import (
	"fmt"
	"math/big"
	"strings"
)

// Piecewise is a function defined by exact rational polynomials on
// consecutive intervals: piece i applies on [Breaks[i], Breaks[i+1]].
// This mirrors the case analysis of Section 5.2 of the paper, where the
// winning probability of a symmetric single-threshold algorithm is a
// different polynomial in the common threshold β on each interval between
// the inclusion-exclusion guard breakpoints.
type Piecewise struct {
	breaks []*big.Rat
	pieces []RatPoly
}

// NewPiecewise builds a piecewise polynomial from n+1 strictly increasing
// breakpoints and n pieces. Inputs are deep-copied.
func NewPiecewise(breaks []*big.Rat, pieces []RatPoly) (*Piecewise, error) {
	if len(breaks) != len(pieces)+1 {
		return nil, fmt.Errorf("poly: %d breakpoints need %d pieces, got %d",
			len(breaks), len(breaks)-1, len(pieces))
	}
	if len(pieces) == 0 {
		return nil, fmt.Errorf("poly: piecewise function needs at least one piece")
	}
	bs := make([]*big.Rat, len(breaks))
	for i, b := range breaks {
		if b == nil {
			return nil, fmt.Errorf("poly: nil breakpoint at index %d", i)
		}
		bs[i] = new(big.Rat).Set(b)
		if i > 0 && bs[i-1].Cmp(bs[i]) >= 0 {
			return nil, fmt.Errorf("poly: breakpoints must be strictly increasing (%v >= %v)",
				bs[i-1], bs[i])
		}
	}
	ps := make([]RatPoly, len(pieces))
	copy(ps, pieces) // RatPoly is immutable; shallow copy is safe
	return &Piecewise{breaks: bs, pieces: ps}, nil
}

// NumPieces returns the number of polynomial pieces.
func (pw *Piecewise) NumPieces() int { return len(pw.pieces) }

// Domain returns copies of the overall domain endpoints.
func (pw *Piecewise) Domain() (lo, hi *big.Rat) {
	return new(big.Rat).Set(pw.breaks[0]), new(big.Rat).Set(pw.breaks[len(pw.breaks)-1])
}

// Piece returns the i-th polynomial piece and its interval.
func (pw *Piecewise) Piece(i int) (RatPoly, Interval, error) {
	if i < 0 || i >= len(pw.pieces) {
		return RatPoly{}, Interval{}, fmt.Errorf("poly: piece index %d out of range [0, %d)", i, len(pw.pieces))
	}
	return pw.pieces[i], Interval{
		Lo: new(big.Rat).Set(pw.breaks[i]),
		Hi: new(big.Rat).Set(pw.breaks[i+1]),
	}, nil
}

// pieceIndex locates the piece containing x, preferring the left piece at
// interior breakpoints. Returns -1 when x is outside the domain.
func (pw *Piecewise) pieceIndex(x *big.Rat) int {
	if x.Cmp(pw.breaks[0]) < 0 || x.Cmp(pw.breaks[len(pw.breaks)-1]) > 0 {
		return -1
	}
	for i := 1; i < len(pw.breaks); i++ {
		if x.Cmp(pw.breaks[i]) <= 0 {
			return i - 1
		}
	}
	return len(pw.pieces) - 1
}

// Eval evaluates the piecewise function exactly at the rational x.
// It returns an error when x is outside the domain.
func (pw *Piecewise) Eval(x *big.Rat) (*big.Rat, error) {
	i := pw.pieceIndex(x)
	if i < 0 {
		lo, hi := pw.Domain()
		return nil, fmt.Errorf("poly: %v outside piecewise domain [%v, %v]", x, lo, hi)
	}
	return pw.pieces[i].Eval(x), nil
}

// Derivative returns the piecewise derivative (pieces differentiated
// individually; values at breakpoints follow the left piece).
func (pw *Piecewise) Derivative() *Piecewise {
	pieces := make([]RatPoly, len(pw.pieces))
	for i, p := range pw.pieces {
		pieces[i] = p.Derivative()
	}
	out, err := NewPiecewise(pw.breaks, pieces)
	if err != nil {
		// Unreachable: breaks/pieces invariants already hold.
		panic(err)
	}
	return out
}

// IsContinuous reports whether adjacent pieces agree exactly at every
// interior breakpoint.
func (pw *Piecewise) IsContinuous() bool {
	for i := 1; i < len(pw.pieces); i++ {
		b := pw.breaks[i]
		if pw.pieces[i-1].Eval(b).Cmp(pw.pieces[i].Eval(b)) != 0 {
			return false
		}
	}
	return true
}

// Extremum describes a certified global extremum of a piecewise polynomial.
type Extremum struct {
	// X encloses the extremizing argument; for rational extremizers
	// Lo == Hi.
	X Interval
	// Value is the function value at the midpoint of X (exact when X is
	// degenerate).
	Value *big.Rat
	// PieceIndex is the index of the piece on which the extremum occurs.
	PieceIndex int
	// Critical polynomial whose root the extremizer is, when the extremum
	// is interior (nil for endpoint extrema).
	Critical *RatPoly
}

// GlobalMax locates the global maximum of the piecewise function over its
// domain. Candidates are all breakpoints plus every root of each piece's
// derivative inside that piece, isolated by Sturm sequences and refined to
// the given positive rational tolerance against one integer square-free
// part per piece. Ties are resolved toward the smaller argument. It
// returns an error for a non-positive tolerance, for an empty function, and
// when root isolation finds the Sturm counts inconsistent.
func (pw *Piecewise) GlobalMax(tol *big.Rat) (Extremum, error) {
	if tol == nil || tol.Sign() <= 0 {
		return Extremum{}, fmt.Errorf("poly: non-positive tolerance for GlobalMax")
	}
	var best Extremum
	haveBest := false
	consider := func(x Interval, pieceIdx int, critical *RatPoly) {
		mid := x.Mid()
		val := pw.pieces[pieceIdx].Eval(mid)
		if !haveBest || val.Cmp(best.Value) > 0 {
			best = Extremum{X: x, Value: val, PieceIndex: pieceIdx, Critical: critical}
			haveBest = true
		}
	}
	for i, piece := range pw.pieces {
		lo, hi := pw.breaks[i], pw.breaks[i+1]
		consider(Interval{Lo: new(big.Rat).Set(lo), Hi: new(big.Rat).Set(lo)}, i, nil)
		consider(Interval{Lo: new(big.Rat).Set(hi), Hi: new(big.Rat).Set(hi)}, i, nil)
		d := piece.Derivative()
		if d.Degree() < 1 {
			continue
		}
		// One integer square-free part serves isolation and every refinement.
		sf, s := squareFreeSturm(d)
		ivs, err := isolateRoots(sf, s, lo, hi)
		if err != nil {
			return Extremum{}, err
		}
		for _, iv := range ivs {
			dCopy := d
			consider(refineRoot(sf, iv, tol), i, &dCopy)
		}
	}
	if !haveBest {
		return Extremum{}, fmt.Errorf("poly: empty piecewise function")
	}
	return best, nil
}

// String renders the piecewise function piece by piece.
func (pw *Piecewise) String() string {
	var b strings.Builder
	for i, p := range pw.pieces {
		fmt.Fprintf(&b, "[%s, %s]: %s", pw.breaks[i].RatString(), pw.breaks[i+1].RatString(), p)
		if i < len(pw.pieces)-1 {
			b.WriteString("\n")
		}
	}
	return b.String()
}
