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

// ratGuardTerm returns the guard tcap − β·i > 0 and the term
// (tcap − β·i)^n of the Corollary 2.6-shaped alternating power sum.
func ratGuardTerm(n int, beta, tcap *big.Rat) (func(int) bool, func(int) *big.Rat) {
	rest := func(i int) *big.Rat {
		v := new(big.Rat).SetInt64(int64(i))
		v.Mul(v, beta)
		return v.Sub(tcap, v)
	}
	return func(i int) bool { return rest(i).Sign() > 0 },
		func(i int) *big.Rat { return ratPow(rest(i), n) }
}

func TestSignedSubsetSumMatchesBinomialCollapse(t *testing.T) {
	// With equal weights, the subset expansion Σ_I (-1)^|I| f(|I|) must
	// agree exactly with the binomial collapse for a nontrivial
	// alternating power sum.
	const n = 8
	guard, term := ratGuardTerm(n, big.NewRat(37, 100), big.NewRat(19, 10))
	subset := new(big.Rat)
	if err := ForEachSubset(n, func(mask uint64) bool {
		if k := Popcount(mask); guard(k) {
			if k%2 == 1 {
				subset.Sub(subset, term(k))
			} else {
				subset.Add(subset, term(k))
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	binom, err := SignedBinomialSumRat(n, guard, term)
	if err != nil {
		t.Fatal(err)
	}
	if subset.Cmp(binom) != 0 {
		t.Errorf("subset form %v != binomial collapse %v", subset.RatString(), binom.RatString())
	}
}

func TestSignedBinomialSumIrwinHallUnitCube(t *testing.T) {
	// F_n(n) = 1: the whole cube satisfies Σ x_i <= n.
	for n := 1; n <= 30; n++ {
		guard, term := ratGuardTerm(n, big.NewRat(1, 1), big.NewRat(int64(n), 1))
		got, err := SignedBinomialSumRat(n, guard, term)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := InvFactorialRat(n)
		if err != nil {
			t.Fatal(err)
		}
		if got.Mul(got, inv).Cmp(big.NewRat(1, 1)) != 0 {
			t.Errorf("n=%d: normalized Irwin-Hall F(n) = %v, want 1", n, got.RatString())
		}
	}
}

// TestSignedBinomialSumRatMatchesFloat checks the exact collapse against
// the float64 subset expansion with compensated summation, at a size where
// the float series is still accurate.
func TestSignedBinomialSumRatMatchesFloat(t *testing.T) {
	const n = 9
	beta, tcap := big.NewRat(2, 7), big.NewRat(5, 3)
	bf, _ := beta.Float64()
	tf, _ := tcap.Float64()
	guard, term := ratGuardTerm(n, beta, tcap)
	exact, err := SignedBinomialSumRat(n, guard, term)
	if err != nil {
		t.Fatal(err)
	}
	var acc Accumulator
	if err := ForEachSubset(n, func(mask uint64) bool {
		if r := tf - bf*float64(Popcount(mask)); r > 0 {
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
	exactF, _ := exact.Float64()
	if math.Abs(acc.Sum()-exactF) > 1e-9*math.Max(1, math.Abs(exactF)) {
		t.Errorf("float %v != exact %v", acc.Sum(), exactF)
	}
}

func TestSignedBinomialSumNilArgs(t *testing.T) {
	if _, err := SignedBinomialSumRat(3, nil, func(int) *big.Rat { return new(big.Rat) }); err == nil {
		t.Error("expected error for nil guard")
	}
	if _, err := SignedBinomialSumRat(3, func(int) bool { return true }, nil); err == nil {
		t.Error("expected error for nil term")
	}
}

func TestSignedBinomialSumVanishesForConstantTermProperty(t *testing.T) {
	// Property: for any n >= 1 and constant c, Σ (-1)^i C(n,i) c = 0.
	f := func(a uint8, c float64) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return true
		}
		n := 1 + int(a%40)
		cr := new(big.Rat).SetFloat64(c)
		got, err := SignedBinomialSumRat(n,
			func(int) bool { return true },
			func(int) *big.Rat { return cr })
		return err == nil && got.Sign() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
