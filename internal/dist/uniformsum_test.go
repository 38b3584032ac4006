package dist

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
)

// TestCDFRatMatchesFloat checks the exact Lemma 2.4 CDF against the float
// Proposition 2.2 table: the full-set volume divided by Π w.
func TestCDFRatMatchesFloat(t *testing.T) {
	widths := []*big.Rat{big.NewRat(1, 2), big.NewRat(3, 4), big.NewRat(1, 1)}
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
			t.Errorf("t=%v: float %v vs exact %v", tf, got, ef)
		}
	}
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
	total := new(big.Rat)
	for mask := 0; mask < 1<<m; mask++ {
		rem := new(big.Rat).Set(t)
		sign := 1
		for i, w := range widths {
			if mask&(1<<i) != 0 {
				rem.Sub(rem, w)
				sign = -sign
			}
		}
		if rem.Sign() < 0 {
			continue
		}
		term := ratPow(rem, m-1)
		if sign < 0 {
			term.Neg(term)
		}
		total.Add(total, term)
	}
	norm := big.NewRat(1, 1)
	for i, w := range widths {
		norm.Mul(norm, w)
		if i >= 1 {
			norm.Mul(norm, big.NewRat(int64(i), 1))
		}
	}
	return total.Quo(total, norm)
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
