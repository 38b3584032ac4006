package combin

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.Sum() != 0 {
		t.Fatalf("zero accumulator sum = %g, want 0", a.Sum())
	}
	a.Add(1)
	a.Add(2)
	a.Add(3)
	if a.Sum() != 6 {
		t.Errorf("sum = %g, want 6", a.Sum())
	}
}

func TestAccumulatorCompensation(t *testing.T) {
	// Classic compensation test: 1 + 1e100 + 1 - 1e100 should be 2.
	var a Accumulator
	for _, v := range []float64{1, 1e100, 1, -1e100} {
		a.Add(v)
	}
	if a.Sum() != 2 {
		t.Errorf("compensated sum = %g, want 2", a.Sum())
	}
}

func TestSumCompensatedAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vs := make([]float64, 10000)
	exact := new(big.Float).SetPrec(200)
	for i := range vs {
		vs[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)))
		exact.Add(exact, big.NewFloat(vs[i]))
	}
	want, _ := exact.Float64()
	var a Accumulator
	for _, v := range vs {
		a.Add(v)
	}
	if got := a.Sum(); math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Errorf("compensated sum = %v, want %v", got, want)
	}
}

func ratPow(r *big.Rat, n int) *big.Rat {
	out := big.NewRat(1, 1)
	for i := 0; i < n; i++ {
		out.Mul(out, r)
	}
	return out
}

func TestSignedSubsetSumMatchesBinomialCollapse(t *testing.T) {
	// With equal weights, the subset expansion Σ_I (-1)^|I| f(|I|) must
	// agree with the binomial collapse for a nontrivial alternating power
	// sum.
	const n = 8
	const beta, tcap = 0.37, 1.9
	var acc Accumulator
	if err := ForEachSubset(n, func(mask uint64) bool {
		r := tcap - beta*float64(Popcount(mask))
		if r > 0 {
			term := math.Pow(r, n)
			if Popcount(mask)%2 == 1 {
				term = -term
			}
			acc.Add(term)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	subset := acc.Sum()
	binom, err := SignedBinomialSum(n,
		func(i int) bool { return tcap-beta*float64(i) > 0 },
		func(i int) float64 { return math.Pow(tcap-beta*float64(i), n) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(subset-binom) > 1e-9*math.Max(1, math.Abs(binom)) {
		t.Errorf("subset form %v != binomial collapse %v", subset, binom)
	}
}

func TestSignedBinomialSumIrwinHallUnitCube(t *testing.T) {
	// F_n(n) = 1: the whole cube satisfies Σ x_i <= n.
	for n := 1; n <= 15; n++ {
		nf := float64(n)
		got, err := SignedBinomialSum(n,
			func(i int) bool { return float64(i) < nf },
			func(i int) float64 { return math.Pow(nf-float64(i), float64(n)) })
		if err != nil {
			t.Fatal(err)
		}
		got /= float64(MustFactorial(min(n, MaxFactorial64)))
		if n <= MaxFactorial64 && math.Abs(got-1) > 1e-9 {
			t.Errorf("n=%d: normalized Irwin-Hall F(n) = %v, want 1", n, got)
		}
	}
}

func TestSignedBinomialSumRatMatchesFloat(t *testing.T) {
	const n = 9
	beta := big.NewRat(2, 7)
	tcap := big.NewRat(5, 3)
	bf, _ := beta.Float64()
	tf, _ := tcap.Float64()
	exact, err := SignedBinomialSumRat(n,
		func(i int) bool {
			v := new(big.Rat).SetInt64(int64(i))
			v.Mul(v, beta)
			return v.Cmp(tcap) < 0
		},
		func(i int) *big.Rat {
			v := new(big.Rat).SetInt64(int64(i))
			v.Mul(v, beta)
			v.Sub(tcap, v)
			return ratPow(v, n)
		})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := SignedBinomialSum(n,
		func(i int) bool { return bf*float64(i) < tf },
		func(i int) float64 { return math.Pow(tf-bf*float64(i), n) })
	if err != nil {
		t.Fatal(err)
	}
	exactF, _ := exact.Float64()
	if math.Abs(approx-exactF) > 1e-9*math.Max(1, math.Abs(exactF)) {
		t.Errorf("float %v != exact %v", approx, exactF)
	}
}

func TestSignedBinomialSumNilArgs(t *testing.T) {
	if _, err := SignedBinomialSum(3, nil, func(int) float64 { return 0 }); err == nil {
		t.Error("expected error for nil guard")
	}
	if _, err := SignedBinomialSum(3, func(int) bool { return true }, nil); err == nil {
		t.Error("expected error for nil term")
	}
	if _, err := SignedBinomialSumRat(3, nil, func(int) *big.Rat { return new(big.Rat) }); err == nil {
		t.Error("expected error for nil guard (rat)")
	}
	if _, err := SignedBinomialSumRat(3, func(int) bool { return true }, nil); err == nil {
		t.Error("expected error for nil term (rat)")
	}
}

func TestSignedBinomialSumVanishesForConstantTermProperty(t *testing.T) {
	// Property: for any n >= 1 and constant c, Σ (-1)^i C(n,i) c = 0.
	f := func(a uint8, c float64) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) || math.Abs(c) > 1e6 {
			return true
		}
		n := 1 + int(a%20)
		got, err := SignedBinomialSum(n,
			func(int) bool { return true },
			func(int) float64 { return c })
		if err != nil {
			return false
		}
		return math.Abs(got) <= 1e-7*math.Max(1, math.Abs(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
