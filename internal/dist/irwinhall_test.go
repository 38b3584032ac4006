package dist

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestIrwinHallCDFValidation(t *testing.T) {
	if _, err := IrwinHallCDF(-1, 0.5); err == nil {
		t.Error("negative order: expected error")
	}
	if _, err := IrwinHallCDF(3, math.NaN()); err == nil {
		t.Error("NaN point: expected error")
	}
	if _, err := IrwinHallCDF(0, 0.5); err != nil {
		t.Errorf("order 0 should be allowed: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("stepping past the maximum order: expected a panic")
		}
	}()
	var l IrwinHallLadder
	l.Reset(1.5, 2)
	for range 3 {
		l.Step()
	}
}

func TestIrwinHallDegenerateOrderZero(t *testing.T) {
	for _, c := range []struct{ t, want float64 }{{0, 1}, {-0.5, 0}, {3, 1}} {
		if got, _ := IrwinHallCDF(0, c.t); got != c.want {
			t.Errorf("F_0(%v) = %v, want %v (point mass at 0)", c.t, got, c.want)
		}
	}
	// A ladder that may not step reads F_0 at every shift.
	var l IrwinHallLadder
	l.Reset(2.5, 0)
	for i, want := range []float64{1, 1, 1, 0, 0} {
		if got := l.CDF(i); got != want {
			t.Errorf("F_0(2.5 - %d) = %v, want %v", i, got, want)
		}
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
	cdf := func(x float64) float64 {
		v, err := IrwinHallCDF(4, x)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if cdf(0) != 0 || cdf(-1) != 0 || cdf(math.Inf(-1)) != 0 {
		t.Error("CDF below support should be 0")
	}
	if cdf(4) != 1 || cdf(10) != 1 || cdf(1e300) != 1 || cdf(math.Inf(1)) != 1 {
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
		fa, errA := IrwinHallCDF(m, a)
		fb, errB := IrwinHallCDF(m, b)
		return errA == nil && errB == nil && fa <= fb
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
		lo, errLo := IrwinHallCDF(m, tt)
		hi, errHi := IrwinHallCDF(m, float64(m)-tt)
		return errLo == nil && errHi == nil && math.Abs(lo+hi-1) < 1e-14
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// irwinHallPDF is the Irwin-Hall density read off the ladder one order
// down: f_m(x) = F_{m−1}(x) − F_{m−1}(x − 1), the Lemma 2.5 density at
// unit widths.
func irwinHallPDF(m int, x float64) float64 {
	var l IrwinHallLadder
	l.Reset(x, m-1)
	for l.Order() < m-1 {
		l.Step()
	}
	return l.CDF(0) - l.CDF(1)
}

func TestIrwinHallPDFIsDerivativeOfCDF(t *testing.T) {
	const h = 1e-6
	for _, x := range []float64{0.4, 1.1, 2.5, 3.9, 4.6} {
		hi, _ := IrwinHallCDF(5, x+h)
		lo, _ := IrwinHallCDF(5, x-h)
		numeric := (hi - lo) / (2 * h)
		analytic := irwinHallPDF(5, x)
		if math.Abs(numeric-analytic) > 1e-5 {
			t.Errorf("f_5(%v): analytic %v vs numeric %v", x, analytic, numeric)
		}
	}
}

func TestIrwinHallPDFIntegratesToOne(t *testing.T) {
	const steps = 6000
	var sum float64
	h := 6.0 / steps
	for i := 0; i <= steps; i++ {
		w := 1.0
		if i == 0 || i == steps {
			w = 0.5
		}
		sum += w * irwinHallPDF(6, float64(i)*h)
	}
	sum *= h
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("∫ f_6 = %v, want 1", sum)
	}
}

func TestIrwinHallPDFOutsideSupport(t *testing.T) {
	if irwinHallPDF(3, -0.1) != 0 || irwinHallPDF(3, 0) != 0 || irwinHallPDF(3, 3) != 0 || irwinHallPDF(3, 3.5) != 0 {
		t.Error("PDF outside open support should be 0")
	}
}

func TestIrwinHallSampleMatchesCDF(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	const n = 200000
	for _, x := range []float64{0.7, 1.5, 2.2} {
		below := 0
		for i := 0; i < n; i++ {
			if rng.Float64()+rng.Float64()+rng.Float64() <= x {
				below++
			}
		}
		want, _ := IrwinHallCDF(3, x)
		if empirical := float64(below) / n; math.Abs(empirical-want) > 0.005 {
			t.Errorf("empirical F_3(%v) = %v, want ≈ %v", x, empirical, want)
		}
	}
}

// TestIrwinHallCDFRatMatchesFloat checks the ladder against the exact
// Corollary 2.6 series (CDFRat at unit widths) at every order m ≤ 200, at
// rational points and at their unit shifts, to a relative error of 1e-13
// — deep into the left tail and at orders where the float64 alternating
// series loses every digit.
func TestIrwinHallCDFRatMatchesFloat(t *testing.T) {
	const maxM = 200
	points := []*big.Rat{
		big.NewRat(1, 2), big.NewRat(7, 3), big.NewRat(5, 1), big.NewRat(29, 4),
		big.NewRat(50, 1), big.NewRat(301, 2), big.NewRat(1599, 8),
	}
	shifts := []int{0, 1, 3}
	if testing.Short() {
		points = points[:4]
	}
	units := unitWidths(maxM)
	var l IrwinHallLadder
	for _, x := range points {
		xf, _ := x.Float64()
		l.Reset(xf, maxM)
		for m := 0; m <= maxM; m++ {
			if m > 0 {
				l.Step()
			}
			for _, i := range shifts {
				y := new(big.Rat).Sub(x, new(big.Rat).SetInt64(int64(i)))
				exact, err := CDFRat(units[:m], y)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := exact.Float64()
				got := l.CDF(i)
				if math.Abs(got-want) > 1e-13*want {
					t.Errorf("F_%d(%v − %d) = %v, exact %v (rel. error %.2e)", m, x.RatString(), i, got, want, math.Abs(got-want)/want)
				}
			}
		}
	}
}

func TestIrwinHallCDFRatLargeOrder(t *testing.T) {
	// The exact path works far beyond the float64 cancellation limit.
	m := 60
	half := big.NewRat(int64(m), 2)
	v, err := CDFRat(unitWidths(m), half)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("F_60(30) = %v, want exactly 1/2 by symmetry", v)
	}
}

func TestIrwinHallCDFRatValidation(t *testing.T) {
	if _, err := CDFRat(unitWidths(3), nil); err == nil {
		t.Error("nil threshold: expected error")
	}
	if _, err := CDFRat(unitWidths(201), big.NewRat(1, 2)); err == nil {
		t.Error("over-limit order: expected error")
	}
	for _, c := range []struct {
		m    int
		x    *big.Rat
		want int64
	}{
		{0, big.NewRat(1, 2), 1}, {0, big.NewRat(-1, 2), 0},
		{2, big.NewRat(-1, 2), 0}, {2, big.NewRat(7, 2), 1},
	} {
		if v, err := CDFRat(unitWidths(c.m), c.x); err != nil || v.Cmp(big.NewRat(c.want, 1)) != 0 {
			t.Errorf("F_%d(%v) = %v, %v; want %d", c.m, c.x.RatString(), v, err, c.want)
		}
	}
}
