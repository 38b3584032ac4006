package dist

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewShiftedUniformSumValidation(t *testing.T) {
	if _, err := NewShiftedUniformSum(nil); err == nil {
		t.Error("empty lowers: expected error")
	}
	if _, err := NewShiftedUniformSum([]float64{0.5, 1.0}); err == nil {
		t.Error("lower bound 1: expected error")
	}
	if _, err := NewShiftedUniformSum([]float64{-0.1}); err == nil {
		t.Error("negative lower bound: expected error")
	}
	if _, err := NewShiftedUniformSum([]float64{math.NaN()}); err == nil {
		t.Error("NaN lower bound: expected error")
	}
	if _, err := NewShiftedUniformSum(make([]float64, MaxSubsetDim+1)); err == nil {
		t.Error("too many summands: expected error")
	}
}

func TestShiftedSumAccessorsAndMoments(t *testing.T) {
	s, err := NewShiftedUniformSum([]float64{0.2, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 2 {
		t.Errorf("N = %d, want 2", s.N())
	}
	lo, hi := s.Support()
	if math.Abs(lo-0.8) > 1e-15 || hi != 2 {
		t.Errorf("support = [%v, %v], want [0.8, 2]", lo, hi)
	}
}

func TestShiftedSumZeroLowersMatchesIrwinHall(t *testing.T) {
	for m := 1; m <= 6; m++ {
		s, err := NewShiftedUniformSum(make([]float64, m))
		if err != nil {
			t.Fatal(err)
		}
		for tt := 0.05; tt < float64(m); tt += 0.17 {
			ih, err := IrwinHallCDF(m, tt)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(s.CDF(tt) - ih); d > 1e-9 {
				t.Errorf("m=%d t=%v: shifted %v vs IrwinHall %v", m, tt, s.CDF(tt), ih)
			}
		}
	}
}

func TestShiftedSumCDFMatchesComplement(t *testing.T) {
	s, err := NewShiftedUniformSum([]float64{0.3, 0.6, 0.45})
	if err != nil {
		t.Fatal(err)
	}
	for tt := 1.2; tt <= 3.0; tt += 0.09 {
		direct := s.CDF(tt)
		viaComp, err := s.CDFViaComplement(tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(direct-viaComp) > 1e-10 {
			t.Errorf("t=%v: Lemma 2.7 direct %v vs complement %v", tt, direct, viaComp)
		}
	}
}

func TestShiftedSumCDFBoundaries(t *testing.T) {
	s, err := NewShiftedUniformSum([]float64{0.25, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.CDF(0.7) != 0 {
		t.Error("CDF below Σπ should be 0")
	}
	if s.CDF(2) != 1 || s.CDF(3) != 1 {
		t.Error("CDF at or beyond m should be 1")
	}
}

func TestShiftedSumSingleVariable(t *testing.T) {
	// One variable uniform on [0.4, 1]: F(t) = (t - 0.4)/0.6.
	s, err := NewShiftedUniformSum([]float64{0.4})
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0.45; tt < 1; tt += 0.05 {
		want := (tt - 0.4) / 0.6
		if math.Abs(s.CDF(tt)-want) > 1e-12 {
			t.Errorf("F(%v) = %v, want %v", tt, s.CDF(tt), want)
		}
	}
}

func TestShiftedSumCDFMonotoneProperty(t *testing.T) {
	f := func(l1, l2 uint8, aRaw, bRaw uint16) bool {
		lowers := []float64{float64(l1%200) / 256, float64(l2%200) / 256}
		s, err := NewShiftedUniformSum(lowers)
		if err != nil {
			return false
		}
		lo, hi := s.Support()
		a := lo + float64(aRaw)/65535*(hi-lo)
		b := lo + float64(bRaw)/65535*(hi-lo)
		if a > b {
			a, b = b, a
		}
		return s.CDF(a) <= s.CDF(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShiftedSumSampleMatchesCDF(t *testing.T) {
	s, err := NewShiftedUniformSum([]float64{0.3, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(21, 34))
	const n = 100000
	threshold := 1.4
	want := s.CDF(threshold)
	hits := 0
	for i := 0; i < n; i++ {
		v, err := s.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		if v < 0.8 || v > 2 {
			t.Fatalf("sample %v outside support [0.8, 2]", v)
		}
		if v <= threshold {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-want) > 0.006 {
		t.Errorf("empirical CDF(1.4) = %v, analytic %v", got, want)
	}
	if _, err := s.Sample(nil); err == nil {
		t.Error("nil rng: expected error")
	}
}

func TestShiftedCDFRatMatchesFloat(t *testing.T) {
	lowers := []*big.Rat{big.NewRat(1, 4), big.NewRat(1, 2), big.NewRat(2, 5)}
	lf := make([]float64, len(lowers))
	for i, l := range lowers {
		lf[i], _ = l.Float64()
	}
	s, err := NewShiftedUniformSum(lf)
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(5); num <= 12; num++ {
		tr := big.NewRat(num, 4)
		tf, _ := tr.Float64()
		exact, err := ShiftedCDFRat(lowers, tr)
		if err != nil {
			t.Fatal(err)
		}
		ef, _ := exact.Float64()
		if math.Abs(s.CDF(tf)-ef) > 1e-10 {
			t.Errorf("t=%v: float %v vs exact %v", tf, s.CDF(tf), ef)
		}
	}
}

func TestShiftedCDFRatValidation(t *testing.T) {
	one := big.NewRat(1, 1)
	half := big.NewRat(1, 2)
	if _, err := ShiftedCDFRat(nil, half); err == nil {
		t.Error("empty lowers: expected error")
	}
	if _, err := ShiftedCDFRat([]*big.Rat{half}, nil); err == nil {
		t.Error("nil threshold: expected error")
	}
	if _, err := ShiftedCDFRat([]*big.Rat{one}, half); err == nil {
		t.Error("lower bound 1: expected error")
	}
	if _, err := ShiftedCDFRat([]*big.Rat{nil}, half); err == nil {
		t.Error("nil lower: expected error")
	}
	if _, err := ShiftedCDFRat([]*big.Rat{big.NewRat(-1, 4)}, half); err == nil {
		t.Error("negative lower: expected error")
	}
}
