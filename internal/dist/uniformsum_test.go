package dist

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewUniformSumValidation(t *testing.T) {
	if _, err := NewUniformSum(nil); err == nil {
		t.Error("empty widths: expected error")
	}
	if _, err := NewUniformSum([]float64{1, 0}); err == nil {
		t.Error("zero width: expected error")
	}
	if _, err := NewUniformSum([]float64{-1}); err == nil {
		t.Error("negative width: expected error")
	}
	if _, err := NewUniformSum([]float64{math.Inf(1)}); err == nil {
		t.Error("infinite width: expected error")
	}
	if _, err := NewUniformSum(make([]float64, MaxSubsetDim+1)); err == nil {
		t.Error("too many summands: expected error")
	}
}

func TestUniformSumAccessorsAndMoments(t *testing.T) {
	u, err := NewUniformSum([]float64{0.5, 1.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if u.N() != 3 {
		t.Errorf("N = %d, want 3", u.N())
	}
	lo, hi := u.Support()
	if lo != 0 || hi != 3 {
		t.Errorf("support = [%v, %v], want [0, 3]", lo, hi)
	}
}

func TestUniformSumMatchesIrwinHallForUnitWidths(t *testing.T) {
	for m := 1; m <= 8; m++ {
		widths := make([]float64, m)
		for i := range widths {
			widths[i] = 1
		}
		u, err := NewUniformSum(widths)
		if err != nil {
			t.Fatal(err)
		}
		for tt := 0.0; tt <= float64(m); tt += 0.13 {
			ih, err := IrwinHallCDF(m, tt)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(u.CDF(tt) - ih); d > 1e-10 {
				t.Errorf("m=%d t=%v: UniformSum %v vs IrwinHall %v", m, tt, u.CDF(tt), ih)
			}
		}
	}
}

func TestUniformSumCDFBoundaries(t *testing.T) {
	u, err := NewUniformSum([]float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if u.CDF(0) != 0 || u.CDF(-1) != 0 {
		t.Error("CDF at or below 0 should be 0")
	}
	if u.CDF(1.0) != 1 || u.CDF(5) != 1 {
		t.Error("CDF at or beyond support should be 1")
	}
}

func TestUniformSumTwoAsymmetricExactValue(t *testing.T) {
	// x ~ U[0, 1], y ~ U[0, 2]: P(x + y ≤ 1) = area of triangle with legs
	// 1,1 inside the 1×2 rectangle divided by 2 = (1/2)/2 = 1/4.
	u, err := NewUniformSum([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := u.CDF(1); math.Abs(got-0.25) > 1e-14 {
		t.Errorf("P(x+y ≤ 1) = %v, want 0.25", got)
	}
	// P(x + y ≤ 2) = (2 - (1/2) - (1/2)) / 2 ... compute directly:
	// area{x+y≤2} in [0,1]×[0,2] = 2 - area{x+y>2} = 2 - 1/2 = 3/2 → 3/4.
	if got := u.CDF(2); math.Abs(got-0.75) > 1e-14 {
		t.Errorf("P(x+y ≤ 2) = %v, want 0.75", got)
	}
}

func TestUniformSumPDFIsDerivativeOfCDF(t *testing.T) {
	u, err := NewUniformSum([]float64{0.5, 1.2, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-6
	for _, x := range []float64{0.2, 0.7, 1.3, 2.0, 2.4} {
		numeric := (u.CDF(x+h) - u.CDF(x-h)) / (2 * h)
		analytic := u.PDF(x)
		if math.Abs(numeric-analytic) > 1e-5 {
			t.Errorf("f(%v): analytic %v vs numeric %v", x, analytic, numeric)
		}
	}
}

func TestUniformSumPDFOutsideSupport(t *testing.T) {
	u, err := NewUniformSum([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if u.PDF(-0.1) != 0 || u.PDF(0) != 0 || u.PDF(1) != 0 || u.PDF(2) != 0 {
		t.Error("PDF outside open support should be 0")
	}
}

func TestUniformSumCDFMonotoneProperty(t *testing.T) {
	f := func(w1, w2, w3 uint8, aRaw, bRaw uint16) bool {
		widths := []float64{
			0.05 + float64(w1)/64,
			0.05 + float64(w2)/64,
			0.05 + float64(w3)/64,
		}
		u, err := NewUniformSum(widths)
		if err != nil {
			return false
		}
		_, hi := u.Support()
		a := float64(aRaw) / 65535 * hi
		b := float64(bRaw) / 65535 * hi
		if a > b {
			a, b = b, a
		}
		return u.CDF(a) <= u.CDF(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniformSumSampleMatchesCDF(t *testing.T) {
	u, err := NewUniformSum([]float64{0.5, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 5))
	const n = 100000
	threshold := 1.0
	want := u.CDF(threshold)
	hits := 0
	for i := 0; i < n; i++ {
		v, err := u.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		if v <= threshold {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-want) > 0.006 {
		t.Errorf("empirical CDF(1) = %v, analytic %v", got, want)
	}
	if _, err := u.Sample(nil); err == nil {
		t.Error("nil rng: expected error")
	}
}

func TestCDFRatMatchesFloat(t *testing.T) {
	widths := []*big.Rat{big.NewRat(1, 2), big.NewRat(3, 4), big.NewRat(1, 1)}
	wf := make([]float64, len(widths))
	for i, w := range widths {
		wf[i], _ = w.Float64()
	}
	u, err := NewUniformSum(wf)
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(0); num <= 9; num++ {
		tr := big.NewRat(num, 4)
		tf, _ := tr.Float64()
		exact, err := CDFRat(widths, tr)
		if err != nil {
			t.Fatal(err)
		}
		ef, _ := exact.Float64()
		if math.Abs(u.CDF(tf)-ef) > 1e-12 {
			t.Errorf("t=%v: float %v vs exact %v", tf, u.CDF(tf), ef)
		}
	}
}

func TestCDFRatValidation(t *testing.T) {
	one := big.NewRat(1, 1)
	// The empty sum is a point mass at 0.
	if v, err := CDFRat(nil, new(big.Rat)); err != nil || v.Cmp(one) != 0 {
		t.Errorf("CDFRat(no widths, 0) = %v, %v; want 1", v, err)
	}
	if v, err := CDFRat(nil, big.NewRat(-1, 2)); err != nil || v.Sign() != 0 {
		t.Errorf("CDFRat(no widths, -1/2) = %v, %v; want 0", v, err)
	}
	if _, err := CDFRat([]*big.Rat{one}, nil); err == nil {
		t.Error("nil threshold: expected error")
	}
	if _, err := CDFRat([]*big.Rat{nil}, one); err == nil {
		t.Error("nil width: expected error")
	}
	if _, err := CDFRat([]*big.Rat{big.NewRat(-1, 2)}, one); err == nil {
		t.Error("negative width: expected error")
	}
	many := make([]*big.Rat, 25)
	for i := range many {
		many[i] = one
	}
	if _, err := CDFRat(many, one); err == nil {
		t.Error("too many summands: expected error")
	}
	// Boundary clamps.
	v, err := CDFRat([]*big.Rat{one}, big.NewRat(-1, 1))
	if err != nil || v.Sign() != 0 {
		t.Errorf("CDFRat below support = %v, %v; want 0", v, err)
	}
	v, err = CDFRat([]*big.Rat{one}, big.NewRat(2, 1))
	if err != nil || v.Cmp(one) != 0 {
		t.Errorf("CDFRat above support = %v, %v; want 1", v, err)
	}
}
