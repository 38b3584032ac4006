package poly

import (
	"math"
	"math/big"
	"testing"
)

// paperN3Piecewise builds the Section 5.2.1 winning probability for
// n = 3, δ = 1: 1/6 + (3/2)β² - (1/2)β³ on [0, 1/2] and
// -11/6 + 9β - (21/2)β² + (7/2)β³ on (1/2, 1].
func paperN3Piecewise(t *testing.T) *Piecewise {
	t.Helper()
	low, err := RatPolyFromFracs([]int64{1, 0, 3, -1}, []int64{6, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	high, err := RatPolyFromFracs([]int64{-11, 9, -21, 7}, []int64{6, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	pw, err := NewPiecewise(
		[]*big.Rat{rat(0, 1), rat(1, 2), rat(1, 1)},
		[]RatPoly{low, high},
	)
	if err != nil {
		t.Fatal(err)
	}
	return pw
}

func TestNewPiecewiseValidation(t *testing.T) {
	p := RatPolyFromInt64(1)
	if _, err := NewPiecewise([]*big.Rat{rat(0, 1), rat(1, 1)}, nil); err == nil {
		t.Error("piece count mismatch: expected error")
	}
	if _, err := NewPiecewise([]*big.Rat{rat(0, 1)}, nil); err == nil {
		t.Error("no pieces: expected error")
	}
	if _, err := NewPiecewise([]*big.Rat{rat(1, 1), rat(0, 1)}, []RatPoly{p}); err == nil {
		t.Error("decreasing breakpoints: expected error")
	}
	if _, err := NewPiecewise([]*big.Rat{rat(0, 1), rat(0, 1)}, []RatPoly{p}); err == nil {
		t.Error("repeated breakpoints: expected error")
	}
	if _, err := NewPiecewise([]*big.Rat{nil, rat(1, 1)}, []RatPoly{p}); err == nil {
		t.Error("nil breakpoint: expected error")
	}
}

func TestPiecewiseAccessors(t *testing.T) {
	pw := paperN3Piecewise(t)
	if pw.NumPieces() != 2 {
		t.Errorf("NumPieces = %d, want 2", pw.NumPieces())
	}
	lo, hi := pw.Domain()
	if lo.Sign() != 0 || hi.Cmp(rat(1, 1)) != 0 {
		t.Errorf("domain = [%v, %v], want [0, 1]", lo, hi)
	}
	piece, iv, err := pw.Piece(1)
	if err != nil {
		t.Fatal(err)
	}
	if piece.Degree() != 3 || iv.Lo.Cmp(rat(1, 2)) != 0 || iv.Hi.Cmp(rat(1, 1)) != 0 {
		t.Errorf("Piece(1) = %v on [%v, %v]", piece, iv.Lo, iv.Hi)
	}
	if _, _, err := pw.Piece(5); err == nil {
		t.Error("out-of-range piece: expected error")
	}
	if _, _, err := pw.Piece(-1); err == nil {
		t.Error("negative piece: expected error")
	}
}

func TestPiecewiseEval(t *testing.T) {
	pw := paperN3Piecewise(t)
	// At β = 0 the probability is 1/6 (both bins receive everything by
	// chance only when all three inputs go to bin 1... the polynomial value).
	v, err := pw.Eval(rat(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if v.Cmp(rat(1, 6)) != 0 {
		t.Errorf("P(0) = %v, want 1/6", v)
	}
	// At β = 1 the value is -11/6 + 9 - 21/2 + 7/2 = 1/6.
	v, err = pw.Eval(rat(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if v.Cmp(rat(1, 6)) != 0 {
		t.Errorf("P(1) = %v, want 1/6", v)
	}
	if _, err := pw.Eval(rat(2, 1)); err == nil {
		t.Error("out-of-domain Eval: expected error")
	}
	if _, err := pw.Eval(rat(-1, 10)); err == nil {
		t.Error("below-domain Eval: expected error")
	}
}

func TestPiecewiseContinuity(t *testing.T) {
	pw := paperN3Piecewise(t)
	if !pw.IsContinuous() {
		t.Error("paper's n=3 piecewise polynomial should be continuous at 1/2")
	}
	// Deliberately discontinuous function.
	bad, err := NewPiecewise(
		[]*big.Rat{rat(0, 1), rat(1, 2), rat(1, 1)},
		[]RatPoly{RatPolyFromInt64(0), RatPolyFromInt64(1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if bad.IsContinuous() {
		t.Error("discontinuous function reported continuous")
	}
}

func TestPiecewiseDerivative(t *testing.T) {
	pw := paperN3Piecewise(t)
	d := pw.Derivative()
	// Derivative of the upper piece at β = 0.8: 9 - 21(0.8) + (21/2)(0.64).
	got, err := d.Eval(rat(4, 5))
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Rat).SetFloat64(9 - 21*0.8 + 10.5*0.64)
	gf, _ := got.Float64()
	wf, _ := want.Float64()
	if math.Abs(gf-wf) > 1e-12 {
		t.Errorf("P'(0.8) = %v, want %v", gf, wf)
	}
}

func TestPiecewiseGlobalMaxPaperN3(t *testing.T) {
	// The headline result of Section 5.2.1: the optimum threshold is
	// β* = 1 - sqrt(1/7) ≈ 0.62203 with P* ≈ 0.54498.
	pw := paperN3Piecewise(t)
	tol := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 60))
	ext, err := pw.GlobalMax(tol)
	if err != nil {
		t.Fatal(err)
	}
	wantBeta := 1 - math.Sqrt(1.0/7.0)
	if math.Abs(ext.X.MidFloat()-wantBeta) > 1e-12 {
		t.Errorf("argmax = %.15g, want %.15g", ext.X.MidFloat(), wantBeta)
	}
	valF, _ := ext.Value.Float64()
	wantP := -11.0/6 + 9*wantBeta - 10.5*wantBeta*wantBeta + 3.5*wantBeta*wantBeta*wantBeta
	if math.Abs(valF-wantP) > 1e-9 {
		t.Errorf("max value = %.15g, want %.15g", valF, wantP)
	}
	if math.Abs(valF-0.545) > 1e-3 {
		t.Errorf("max value = %.4f, want ≈ 0.545 (paper)", valF)
	}
	if ext.PieceIndex != 1 {
		t.Errorf("max on piece %d, want 1", ext.PieceIndex)
	}
	if ext.Critical == nil {
		t.Error("interior maximum should carry its critical polynomial")
	}
}

func TestPiecewiseGlobalMaxEndpoint(t *testing.T) {
	// Strictly increasing function: max at the right endpoint.
	inc, err := NewPiecewise(
		[]*big.Rat{rat(0, 1), rat(1, 1)},
		[]RatPoly{RatPolyFromInt64(0, 1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := inc.GlobalMax(rat(1, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if ext.X.MidFloat() != 1 || ext.Value.Cmp(rat(1, 1)) != 0 {
		t.Errorf("max of x on [0,1] = %v at %v, want 1 at 1", ext.Value, ext.X.MidFloat())
	}
	if ext.Critical != nil {
		t.Error("endpoint maximum should have nil Critical")
	}
}

func TestPiecewiseGlobalMaxToleranceValidation(t *testing.T) {
	pw := paperN3Piecewise(t)
	if _, err := pw.GlobalMax(nil); err == nil {
		t.Error("nil tolerance: expected error")
	}
	if _, err := pw.GlobalMax(rat(-1, 2)); err == nil {
		t.Error("negative tolerance: expected error")
	}
}

func TestPiecewiseString(t *testing.T) {
	pw := paperN3Piecewise(t)
	s := pw.String()
	if s == "" {
		t.Error("String() should be non-empty")
	}
}
