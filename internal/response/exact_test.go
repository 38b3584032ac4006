package response

import (
	"math"
	"math/big"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/nonoblivious"
)

func ri(lo, hi *big.Rat) RatInterval { return RatInterval{Lo: lo, Hi: hi} }

func rr(a, b int64) *big.Rat { return big.NewRat(a, b) }

func TestNewRatIntervalSetValidation(t *testing.T) {
	if _, err := NewRatIntervalSet([]RatInterval{ri(rr(-1, 2), rr(1, 2))}); err == nil {
		t.Error("negative lo: expected error")
	}
	if _, err := NewRatIntervalSet([]RatInterval{ri(rr(1, 2), rr(3, 2))}); err == nil {
		t.Error("hi > 1: expected error")
	}
	if _, err := NewRatIntervalSet([]RatInterval{ri(rr(2, 3), rr(1, 3))}); err == nil {
		t.Error("inverted: expected error")
	}
	if _, err := NewRatIntervalSet([]RatInterval{ri(rr(0, 1), rr(1, 2)), ri(rr(1, 3), rr(2, 3))}); err == nil {
		t.Error("overlap: expected error")
	}
	if _, err := NewRatIntervalSet([]RatInterval{{Lo: nil, Hi: rr(1, 2)}}); err == nil {
		t.Error("nil endpoint: expected error")
	}
}

func TestRatIntervalSetMeasureAndComplement(t *testing.T) {
	s, err := NewRatIntervalSet([]RatInterval{
		ri(rr(1, 10), rr(3, 10)),
		ri(rr(3, 5), rr(4, 5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Measure().Cmp(rr(2, 5)) != 0 {
		t.Errorf("measure = %v, want 2/5", s.Measure())
	}
	c := s.Complement()
	sum := new(big.Rat).Add(s.Measure(), c.Measure())
	if sum.Cmp(rr(1, 1)) != 0 {
		t.Errorf("measures sum to %v, want 1", sum)
	}
	if len(c.intervals) != 3 {
		t.Errorf("complement has %d intervals, want 3", len(c.intervals))
	}
}

func TestRatIntervalSetFloat(t *testing.T) {
	s, err := NewRatIntervalSet([]RatInterval{ri(rr(1, 4), rr(3, 4))})
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.Float()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Measure()-0.5) > 1e-15 {
		t.Errorf("float measure = %v", f.Measure())
	}
}

func TestExactWinProbabilityMatchesThresholdTheory(t *testing.T) {
	// A threshold set [0, β] must reproduce the symbolic Theorem 5.1
	// value exactly (identical rationals).
	for _, c := range []struct {
		n        int
		capacity *big.Rat
		beta     *big.Rat
	}{
		{3, rr(1, 1), rr(5, 8)},
		{3, rr(1, 1), rr(1, 2)},
		{4, rr(4, 3), rr(2, 3)},
		{5, rr(5, 3), rr(3, 5)},
	} {
		s, err := NewRatIntervalSet([]RatInterval{ri(new(big.Rat), c.beta)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExactWinProbability(c.n, c.capacity, s)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := nonoblivious.SymbolicSymmetric(c.n, c.capacity)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pw.Eval(c.beta)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Errorf("n=%d δ=%v β=%v: exact set value %v vs symbolic %v",
				c.n, c.capacity, c.beta, got, want)
		}
	}
}

func TestExactWinProbabilityBandMatchesFloatOracle(t *testing.T) {
	// The n=4 band finding, in exact arithmetic: the float oracle must
	// agree to rounding.
	band, err := NewRatIntervalSet([]RatInterval{ri(rr(327, 1000), rr(742, 1000))})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactWinProbability(4, rr(4, 3), band)
	if err != nil {
		t.Fatal(err)
	}
	ef, _ := exact.Float64()
	fb, err := band.Float()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(4, 4.0/3)
	if err != nil {
		t.Fatal(err)
	}
	float, err := ev.WinProbability(fb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float-ef) > 1e-12 {
		t.Errorf("float %v vs exact %v", float, ef)
	}
	// The finding itself, certified: the band beats both paper classes.
	if !(ef > 0.431328) {
		t.Errorf("exact band value %v should beat the oblivious coin 0.431327", ef)
	}
	if !(ef > 0.428540) {
		t.Errorf("exact band value %v should beat the threshold optimum 0.428539", ef)
	}
}

func TestExactWinProbabilityEmptyAndFull(t *testing.T) {
	empty, err := NewRatIntervalSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ExactWinProbability(3, rr(1, 1), empty)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cmp(rr(1, 6)) != 0 {
		t.Errorf("P(∅) = %v, want exactly 1/6 (= F_3(1))", p)
	}
	full, err := NewRatIntervalSet([]RatInterval{ri(new(big.Rat), rr(1, 1))})
	if err != nil {
		t.Fatal(err)
	}
	p, err = ExactWinProbability(3, rr(1, 1), full)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cmp(rr(1, 6)) != 0 {
		t.Errorf("P([0,1]) = %v, want exactly 1/6", p)
	}
}

func TestExactWinProbabilityDegenerateIntervalIgnored(t *testing.T) {
	// A zero-width interval carries no mass; including it must not change
	// the result.
	with, err := NewRatIntervalSet([]RatInterval{
		ri(rr(1, 8), rr(1, 8)), // degenerate
		ri(rr(1, 4), rr(3, 4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	without, err := NewRatIntervalSet([]RatInterval{ri(rr(1, 4), rr(3, 4))})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ExactWinProbability(3, rr(1, 1), with)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExactWinProbability(3, rr(1, 1), without)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cmp(b) != 0 {
		t.Errorf("degenerate interval changed the value: %v vs %v", a, b)
	}
}

func TestExactWinProbabilityValidation(t *testing.T) {
	s, err := NewRatIntervalSet([]RatInterval{ri(rr(1, 4), rr(3, 4))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExactWinProbability(1, rr(1, 1), s); err == nil {
		t.Error("n=1: expected error")
	}
	if _, err := ExactWinProbability(13, rr(1, 1), s); err == nil {
		t.Error("n=13: expected error")
	}
	if _, err := ExactWinProbability(3, nil, s); err == nil {
		t.Error("nil capacity: expected error")
	}
	if _, err := ExactWinProbability(3, rr(0, 1), s); err == nil {
		t.Error("zero capacity: expected error")
	}
}

// TestWinProbabilityMatchesExactProperty checks the float kernel against
// the big.Rat oracle on seeded random rational sets: one to three
// intervals with endpoints on the 1/60 lattice, some shrunk to slivers
// 2⁻²⁰ wide, n ∈ [2, 12] and δ = j/3 up to 2n/3.
func TestWinProbabilityMatchesExactProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 0x0ac1e))
	sliver := rr(1, 1<<20)
	for trial := 0; trial < 24; trial++ {
		n := 2 + rng.IntN(11)
		capacity := rr(int64(1+rng.IntN(2*n)), 3)
		k := 1 + rng.IntN(3)
		ends := rng.Perm(61)[:2*k]
		slices.Sort(ends)
		ivs := make([]RatInterval, k)
		for i := range ivs {
			lo := rr(int64(ends[2*i]), 60)
			hi := rr(int64(ends[2*i+1]), 60)
			if rng.IntN(3) == 0 {
				hi = new(big.Rat).Add(lo, sliver)
			}
			ivs[i] = ri(lo, hi)
		}
		s, err := NewRatIntervalSet(ivs)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExactWinProbability(n, capacity, s)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := exact.Float64()
		fs, err := s.Float()
		if err != nil {
			t.Fatal(err)
		}
		cf, _ := capacity.Float64()
		ev, err := NewEvaluator(n, cf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.WinProbability(fs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("n=%d δ=%v S=%v: float %v vs exact %v (diff %.3g)", n, capacity, fs, got, want, got-want)
		}
	}
}
