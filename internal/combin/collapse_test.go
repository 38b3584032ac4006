package combin

import (
	"math"
	"math/big"
	"math/bits"
	"testing"
)

// These tests check the equal-weight collapse of an inclusion-exclusion
// sum, Σ_I (-1)^|I| f(|I|) = Σ_i (-1)^i C(n, i) f(i), built from this
// package's subset iterator, BinomialBig and FactorialBig. It is the
// identity behind Corollary 2.6 and dist.CDFRat's grouping of equal widths.

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

// signedBinomialSum is the collapsed form Σ_{i ≤ n, guard(i)} (-1)^i ·
// C(n, i) · term(i), with the coefficients from BinomialBig.
func signedBinomialSum(t *testing.T, n int, guard func(int) bool, term func(int) *big.Rat) *big.Rat {
	t.Helper()
	total, scaled := new(big.Rat), new(big.Rat)
	for i := 0; i <= n; i++ {
		if !guard(i) {
			continue
		}
		c, err := BinomialBig(n, i)
		if err != nil {
			t.Fatal(err)
		}
		scaled.SetInt(c)
		scaled.Mul(scaled, term(i))
		if i%2 == 1 {
			total.Sub(total, scaled)
		} else {
			total.Add(total, scaled)
		}
	}
	return total
}

func TestSignedSubsetSumMatchesBinomialCollapse(t *testing.T) {
	// With equal weights, the subset expansion Σ_I (-1)^|I| f(|I|) must
	// agree exactly with the binomial collapse for a nontrivial
	// alternating power sum.
	const n = 8
	guard, term := ratGuardTerm(n, big.NewRat(37, 100), big.NewRat(19, 10))
	subset := new(big.Rat)
	if err := ForEachSubset(n, func(mask uint64) bool {
		if k := bits.OnesCount64(mask); guard(k) {
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
	binom := signedBinomialSum(t, n, guard, term)
	if subset.Cmp(binom) != 0 {
		t.Errorf("subset form %v != binomial collapse %v", subset.RatString(), binom.RatString())
	}
}

func TestSignedBinomialSumIrwinHallUnitCube(t *testing.T) {
	// F_n(n) = 1: the whole cube satisfies Σ x_i <= n.
	for n := 1; n <= 30; n++ {
		guard, term := ratGuardTerm(n, big.NewRat(1, 1), big.NewRat(int64(n), 1))
		got := signedBinomialSum(t, n, guard, term)
		fact, err := FactorialBig(n)
		if err != nil {
			t.Fatal(err)
		}
		if got.Quo(got, new(big.Rat).SetInt(fact)).Cmp(big.NewRat(1, 1)) != 0 {
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
	exact := signedBinomialSum(t, n, guard, term)
	var acc Accumulator
	if err := ForEachSubset(n, func(mask uint64) bool {
		k := bits.OnesCount64(mask)
		if r := tf - bf*float64(k); r > 0 {
			term := math.Pow(r, n)
			if k%2 == 1 {
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
