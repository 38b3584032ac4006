package dist

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewIrwinHallValidation(t *testing.T) {
	if _, err := NewIrwinHall(-1); err == nil {
		t.Error("negative order: expected error")
	}
	if _, err := NewIrwinHall(MaxIrwinHallN + 1); err == nil {
		t.Error("over-limit order: expected error")
	}
	ih, err := NewIrwinHall(0)
	if err != nil {
		t.Fatalf("order 0 should be allowed: %v", err)
	}
	if ih.N() != 0 {
		t.Errorf("N = %d, want 0", ih.N())
	}
}

func TestIrwinHallDegenerateOrderZero(t *testing.T) {
	ih, err := NewIrwinHall(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ih.CDF(0); got != 1 {
		t.Errorf("F_0(0) = %v, want 1 (point mass at 0)", got)
	}
	if got := ih.CDF(-0.5); got != 0 {
		t.Errorf("F_0(-0.5) = %v, want 0", got)
	}
	if got := ih.CDF(3); got != 1 {
		t.Errorf("F_0(3) = %v, want 1", got)
	}
}

func TestIrwinHallKnownValues(t *testing.T) {
	cases := []struct {
		m    int
		t    float64
		want float64
	}{
		{1, 0.3, 0.3}, // uniform CDF
		{1, 1.0, 1.0},
		{2, 1.0, 0.5}, // triangle distribution
		{2, 0.5, 0.125},
		{2, 1.5, 0.875},
		{3, 1.0, 1.0 / 6}, // unit simplex volume
		{3, 1.5, 0.5},     // symmetry at the mean
		{3, 2.0, 5.0 / 6},
		{4, 2.0, 0.5},
		{5, 2.5, 0.5},
	}
	for _, c := range cases {
		got, err := IrwinHallCDF(c.m, c.t)
		if err != nil {
			t.Fatalf("IrwinHallCDF(%d, %v): %v", c.m, c.t, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("F_%d(%v) = %.15f, want %.15f", c.m, c.t, got, c.want)
		}
	}
}

func TestIrwinHallCDFBoundaries(t *testing.T) {
	ih, err := NewIrwinHall(4)
	if err != nil {
		t.Fatal(err)
	}
	if ih.CDF(0) != 0 || ih.CDF(-1) != 0 {
		t.Error("CDF below support should be 0")
	}
	if ih.CDF(4) != 1 || ih.CDF(10) != 1 {
		t.Error("CDF above support should be 1")
	}
}

func TestIrwinHallCDFMonotoneProperty(t *testing.T) {
	f := func(mRaw uint8, aRaw, bRaw uint16) bool {
		m := 1 + int(mRaw%10)
		a := float64(aRaw) / 65535 * float64(m)
		b := float64(bRaw) / 65535 * float64(m)
		if a > b {
			a, b = b, a
		}
		ih, err := NewIrwinHall(m)
		if err != nil {
			return false
		}
		return ih.CDF(a) <= ih.CDF(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIrwinHallSymmetryProperty(t *testing.T) {
	// F_m(t) + F_m(m - t) = 1 by symmetry of the density about m/2.
	f := func(mRaw uint8, tRaw uint16) bool {
		m := 1 + int(mRaw%12)
		tt := float64(tRaw) / 65535 * float64(m)
		ih, err := NewIrwinHall(m)
		if err != nil {
			return false
		}
		return math.Abs(ih.CDF(tt)+ih.CDF(float64(m)-tt)-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// unitWidthSum is the Irwin-Hall distribution of order m as a UniformSum,
// whose PDF is the Lemma 2.5 density.
func unitWidthSum(t *testing.T, m int) *UniformSum {
	t.Helper()
	widths := make([]float64, m)
	for i := range widths {
		widths[i] = 1
	}
	u, err := NewUniformSum(widths)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestIrwinHallPDFIsDerivativeOfCDF(t *testing.T) {
	ih, err := NewIrwinHall(5)
	if err != nil {
		t.Fatal(err)
	}
	u := unitWidthSum(t, 5)
	const h = 1e-6
	for _, x := range []float64{0.4, 1.1, 2.5, 3.9, 4.6} {
		numeric := (ih.CDF(x+h) - ih.CDF(x-h)) / (2 * h)
		analytic := u.PDF(x)
		if math.Abs(numeric-analytic) > 1e-5 {
			t.Errorf("f_5(%v): analytic %v vs numeric %v", x, analytic, numeric)
		}
	}
}

func TestIrwinHallPDFIntegratesToOne(t *testing.T) {
	u := unitWidthSum(t, 6)
	const steps = 6000
	var sum float64
	h := 6.0 / steps
	for i := 0; i <= steps; i++ {
		w := 1.0
		if i == 0 || i == steps {
			w = 0.5
		}
		sum += w * u.PDF(float64(i)*h)
	}
	sum *= h
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("∫ f_6 = %v, want 1", sum)
	}
}

func TestIrwinHallPDFOutsideSupport(t *testing.T) {
	u := unitWidthSum(t, 3)
	if u.PDF(-0.1) != 0 || u.PDF(0) != 0 || u.PDF(3) != 0 || u.PDF(3.5) != 0 {
		t.Error("PDF outside open support should be 0")
	}
}

func TestIrwinHallSampleMatchesCDF(t *testing.T) {
	ih, err := NewIrwinHall(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 13))
	const n = 200000
	for _, x := range []float64{0.7, 1.5, 2.2} {
		below := 0
		for i := 0; i < n; i++ {
			if rng.Float64()+rng.Float64()+rng.Float64() <= x {
				below++
			}
		}
		if empirical := float64(below) / n; math.Abs(empirical-ih.CDF(x)) > 0.005 {
			t.Errorf("empirical F_3(%v) = %v, want ≈ %v", x, empirical, ih.CDF(x))
		}
	}
}

func TestIrwinHallCDFRatMatchesFloat(t *testing.T) {
	for m := 1; m <= 10; m++ {
		for num := int64(0); num <= int64(4*m); num++ {
			tr := big.NewRat(num, 4)
			tf, _ := tr.Float64()
			exact, err := IrwinHallCDFRat(m, tr)
			if err != nil {
				t.Fatal(err)
			}
			approx, err := IrwinHallCDF(m, tf)
			if err != nil {
				t.Fatal(err)
			}
			ef, _ := exact.Float64()
			if math.Abs(approx-ef) > 1e-10 {
				t.Errorf("m=%d t=%v: float %v vs exact %v", m, tf, approx, ef)
			}
		}
	}
}

func TestIrwinHallCDFRatLargeOrder(t *testing.T) {
	// The exact path works far beyond the float64 cancellation limit.
	m := 60
	half := big.NewRat(int64(m), 2)
	v, err := IrwinHallCDFRat(m, half)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("F_60(30) = %v, want exactly 1/2 by symmetry", v)
	}
}

func TestIrwinHallCDFRatValidation(t *testing.T) {
	if _, err := IrwinHallCDFRat(-1, big.NewRat(1, 2)); err == nil {
		t.Error("negative order: expected error")
	}
	if _, err := IrwinHallCDFRat(3, nil); err == nil {
		t.Error("nil threshold: expected error")
	}
	if _, err := IrwinHallCDFRat(MaxIrwinHallRatN+1, big.NewRat(1, 2)); err == nil {
		t.Error("over-limit order: expected error")
	}
	v, err := IrwinHallCDFRat(0, big.NewRat(1, 2))
	if err != nil || v.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("F_0(1/2) = %v, %v; want 1", v, err)
	}
	v, err = IrwinHallCDFRat(0, big.NewRat(-1, 2))
	if err != nil || v.Sign() != 0 {
		t.Errorf("F_0(-1/2) = %v, %v; want 0", v, err)
	}
	v, err = IrwinHallCDFRat(2, big.NewRat(-1, 2))
	if err != nil || v.Sign() != 0 {
		t.Errorf("F_2(-1/2) = %v, %v; want 0", v, err)
	}
	v, err = IrwinHallCDFRat(2, big.NewRat(7, 2))
	if err != nil || v.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("F_2(7/2) = %v, %v; want 1", v, err)
	}
}

func TestNormalApproxErrorShrinksWithM(t *testing.T) {
	e3, err := NormalApproxError(3, 2001)
	if err != nil {
		t.Fatal(err)
	}
	e12, err := NormalApproxError(12, 2001)
	if err != nil {
		t.Fatal(err)
	}
	e25, err := NormalApproxError(25, 2001)
	if err != nil {
		t.Fatal(err)
	}
	if !(e3 > e12 && e12 > e25) {
		t.Errorf("normal approximation error should shrink: m=3 %v, m=12 %v, m=25 %v", e3, e12, e25)
	}
	// At the paper's n=3 the CLT is visibly wrong (≈ 1% Kolmogorov
	// distance), justifying the exact combinatorial treatment.
	if e3 < 0.005 {
		t.Errorf("m=3 error %v suspiciously small", e3)
	}
	if e25 > 0.01 {
		t.Errorf("m=25 error %v suspiciously large", e25)
	}
}

func TestNormalApproxErrorValidation(t *testing.T) {
	if _, err := NormalApproxError(0, 100); err == nil {
		t.Error("m=0: expected error")
	}
	if _, err := NormalApproxError(-1, 100); err == nil {
		t.Error("m=-1: expected error")
	}
	if _, err := NormalApproxError(3, 1); err == nil {
		t.Error("1 grid point: expected error")
	}
	if _, err := NormalApproxError(MaxIrwinHallN+1, 100); err == nil {
		t.Error("m over limit: expected error")
	}
}

func TestStdNormalCDFKnownValues(t *testing.T) {
	if math.Abs(stdNormalCDF(0)-0.5) > 1e-15 {
		t.Error("Φ(0) != 1/2")
	}
	if math.Abs(stdNormalCDF(1.959963985)-0.975) > 1e-6 {
		t.Errorf("Φ(1.96) = %v", stdNormalCDF(1.959963985))
	}
	if math.Abs(stdNormalCDF(-1.959963985)-0.025) > 1e-6 {
		t.Errorf("Φ(-1.96) = %v", stdNormalCDF(-1.959963985))
	}
}
