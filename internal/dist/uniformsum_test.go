package dist

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
)

// TestCDFRatMatchesFloat checks the exact Lemma 2.4 CDF against the float
// Proposition 2.2 table: the full-set volume divided by Π w. The widths
// are distinct in one case and all equal in the other.
func TestCDFRatMatchesFloat(t *testing.T) {
	equal := make([]*big.Rat, 9)
	for i := range equal {
		equal[i] = big.NewRat(2, 7)
	}
	for _, widths := range [][]*big.Rat{{big.NewRat(1, 2), big.NewRat(3, 4), big.NewRat(1, 1)}, equal} {
		wf := make([]float64, len(widths))
		prod := 1.0
		for i, w := range widths {
			wf[i], _ = w.Float64()
			prod *= wf[i]
		}
		full := 1<<len(widths) - 1
		for num := int64(0); num <= 9; num++ {
			tr := big.NewRat(num, 4)
			tf, _ := tr.Float64()
			vol, _, err := AllSubsetVolumes(nil, wf, tf, nil)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := CDFRat(widths, tr)
			if err != nil {
				t.Fatal(err)
			}
			ef, _ := exact.Float64()
			if got := vol[full] / prod; math.Abs(got-ef) > 1e-12 {
				t.Errorf("widths %v, t=%v: float %v vs exact %v", widths, tf, got, ef)
			}
		}
	}
}

// subsetSum is the inclusion-exclusion sum of Lemmas 2.4 and 2.5 taken
// one subset I of the widths at a time, with no grouping of equal widths:
//
//	Σ_{I : Σ_{l∈I} w_l < t} (−1)^|I| (t − Σ_{l∈I} w_l)^n.
//
// With closed set, the guard also admits Σ_{l∈I} w_l = t, with 0^0 = 1.
func subsetSum(widths []*big.Rat, t *big.Rat, n int, closed bool) *big.Rat {
	total := new(big.Rat)
	for mask := 0; mask < 1<<len(widths); mask++ {
		rem := new(big.Rat).Set(t)
		odd := false
		for i, w := range widths {
			if mask&(1<<i) != 0 {
				rem.Sub(rem, w)
				odd = !odd
			}
		}
		if rem.Sign() < 0 || rem.Sign() == 0 && !closed {
			continue
		}
		term := big.NewRat(1, 1)
		for range n {
			term.Mul(term, rem)
		}
		if odd {
			total.Sub(total, term)
		} else {
			total.Add(total, term)
		}
	}
	return total
}

// boxNorm returns n!·Π w_l.
func boxNorm(widths []*big.Rat, n int) *big.Rat {
	norm := new(big.Rat).SetInt(new(big.Int).MulRange(1, int64(n)))
	for _, w := range widths {
		norm.Mul(norm, w)
	}
	return norm
}

// subsetCDFRat is Lemma 2.4 summed subset by subset: the independent
// reference for CDFRat's sum over multiplicities of equal widths.
func subsetCDFRat(widths []*big.Rat, t *big.Rat) *big.Rat {
	m := len(widths)
	return new(big.Rat).Quo(subsetSum(widths, t, m, false), boxNorm(widths, m))
}

// rotaDensityRat is Lemma 2.5, the density of Σ x_i with x_i ~ U[0, w_i],
// in exact rationals:
//
//	f(t) = 1/((m−1)! Π w_l) · Σ_{I : Σ_{l∈I} w_l ≤ t} (−1)^|I| (t − Σ_{l∈I} w_l)^(m−1).
//
// The guard admits σ_I = t (with 0^0 = 1), which makes f right-continuous;
// for m ≥ 2 those terms vanish, and for m = 1 it picks the value of the
// density at its two jumps that the CDF difference quotient gives.
func rotaDensityRat(widths []*big.Rat, t *big.Rat) *big.Rat {
	m := len(widths)
	return new(big.Rat).Quo(subsetSum(widths, t, m-1, true), boxNorm(widths, m-1))
}

// TestCDFRatMatchesSubsetSum checks CDFRat, which sums over multiplicities
// of equal widths, exactly against the subset-by-subset sum on seeded
// multisets of every shape: all widths distinct, all equal, and mixed.
// The points cover the support, both sides outside it, and exact partial
// sums of the widths, where (t − Σ)₊ = 0 cuts the sum.
func TestCDFRatMatchesSubsetSum(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 4))
	check := func(widths []*big.Rat, x *big.Rat) {
		t.Helper()
		got, err := CDFRat(widths, x)
		if err != nil {
			t.Fatal(err)
		}
		if want := subsetCDFRat(widths, x); got.Cmp(want) != 0 {
			t.Fatalf("widths %v, t = %v: CDFRat %v, subset sum %v",
				widths, x.RatString(), got.RatString(), want.RatString())
		}
	}
	for trial := 0; trial < 60; trial++ {
		m := 1 + trial%8
		distinct := []int{m, 1, 1 + rng.IntN(min(m, 3))}[trial%3]
		// Pool width j lies in (j, j+1), so the pool has no repeats; each
		// is used at least once.
		pool := make([]*big.Rat, distinct)
		for j := range pool {
			pool[j] = big.NewRat(int64(j)*12+1+rng.Int64N(11), 12)
		}
		widths := make([]*big.Rat, m)
		support := new(big.Rat)
		for i := range widths {
			j := i
			if i >= distinct {
				j = rng.IntN(distinct)
			}
			widths[i] = pool[j]
			support.Add(support, widths[i])
		}
		for k := 0; k < 4; k++ {
			check(widths, new(big.Rat).Mul(support, big.NewRat(rng.Int64N(120)-10, 100)))
			partial := new(big.Rat)
			for _, w := range widths {
				if rng.IntN(2) == 0 {
					partial.Add(partial, w)
				}
			}
			check(widths, partial)
		}
	}
	// Equal widths at a threshold that is no partial sum, and the unit cube
	// at every integer point: Corollary 2.6's knots.
	equal := make([]*big.Rat, 8)
	for i := range equal {
		equal[i] = big.NewRat(37, 100)
	}
	check(equal, big.NewRat(19, 10))
	for m := 1; m <= 8; m++ {
		for k := int64(0); k <= int64(m); k++ {
			check(unitWidths(m), big.NewRat(k, 1))
		}
	}
}

// unitWidths returns m widths of 1, for which Lemma 2.4 is Corollary 2.6.
func unitWidths(m int) []*big.Rat {
	units := make([]*big.Rat, m)
	for i := range units {
		units[i] = big.NewRat(1, 1)
	}
	return units
}

// TestRotaDensityMatchesCDFDifference checks Lemma 2.5 (the density that
// answers Rota's problem) exactly: adding x_j ~ U[0, w_j] to the sum over
// S∖j gives f_S(t) = (F_{S∖j}(t) − F_{S∖j}(t − w_j)) / w_j, for every j,
// with F the exact Lemma 2.4 CDF. Widths and points are random rationals;
// the points cover the support and both sides outside it.
func TestRotaDensityMatchesCDFDifference(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 7))
	for trial := 0; trial < 40; trial++ {
		m := 1 + trial%6
		widths := make([]*big.Rat, m)
		support := new(big.Rat)
		for i := range widths {
			widths[i] = big.NewRat(1+rng.Int64N(16), 1+rng.Int64N(8))
			support.Add(support, widths[i])
		}
		// Points from −1/4 to 3/2 of the support, plus the knots 0 and support.
		var points []*big.Rat
		for k := 0; k < 6; k++ {
			p := new(big.Rat).Mul(support, big.NewRat(rng.Int64N(97), 64))
			points = append(points, p.Sub(p, big.NewRat(1, 4)))
		}
		points = append(points, new(big.Rat), new(big.Rat).Set(support))
		for _, x := range points {
			want := rotaDensityRat(widths, x)
			for j := range widths {
				rest := append(append([]*big.Rat{}, widths[:j]...), widths[j+1:]...)
				hi, err := CDFRat(rest, x)
				if err != nil {
					t.Fatal(err)
				}
				lo, err := CDFRat(rest, new(big.Rat).Sub(x, widths[j]))
				if err != nil {
					t.Fatal(err)
				}
				got := new(big.Rat).Sub(hi, lo)
				got.Quo(got, widths[j])
				if got.Cmp(want) != 0 {
					t.Fatalf("widths %v, t = %v, j = %d: CDF difference %v, Lemma 2.5 %v",
						widths, x.RatString(), j, got.RatString(), want.RatString())
				}
			}
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
	// Up to 200 summands and 2^24 multi-indices are summed; past either
	// cap the work is refused.
	if v, err := CDFRat(unitWidths(200), big.NewRat(100, 1)); err != nil || v.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("F_200(100) = %v, %v; want 1/2", v, err)
	}
	if _, err := CDFRat(unitWidths(201), one); err == nil {
		t.Error("201 summands: expected error")
	}
	distinct := make([]*big.Rat, 25)
	for i := range distinct {
		distinct[i] = big.NewRat(int64(i+1), 1)
	}
	if v, err := CDFRat(distinct[:24], big.NewRat(3, 2)); err != nil || v.Sign() <= 0 {
		t.Errorf("24 distinct widths: %v, %v; want a positive CDF", v, err)
	}
	if _, err := CDFRat(distinct, one); err == nil {
		t.Error("2^25 multi-indices: expected error")
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
