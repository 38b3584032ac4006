package nonoblivious

import (
	"errors"
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/combin"
	"repro/internal/dist"
	"repro/internal/poly"
	"repro/internal/problem"
)

func TestWinningProbabilityRatMatchesFloat(t *testing.T) {
	cases := [][]*big.Rat{
		{rat(1, 2), rat(1, 2), rat(1, 2)},
		{rat(2, 5), rat(7, 10), rat(11, 20)},
		{rat(0, 1), rat(1, 1), rat(1, 2)},
		{rat(3, 5), rat(3, 5), rat(3, 5), rat(3, 5)},
	}
	capacity := rat(4, 3)
	cf, _ := capacity.Float64()
	for _, ths := range cases {
		tf := make([]float64, len(ths))
		for i, a := range ths {
			tf[i], _ = a.Float64()
		}
		exact, err := WinningProbabilityPiRat(ths, nil, capacity)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := WinningProbability(tf, cf, nil)
		if err != nil {
			t.Fatal(err)
		}
		ef, _ := exact.Float64()
		if math.Abs(approx-ef) > 1e-12 {
			t.Errorf("thresholds %v: float %v vs exact %v", tf, approx, ef)
		}
	}
}

func TestWinningProbabilityRatExactValueN3(t *testing.T) {
	// β = 0: P = F_3(1) = 1/6, exactly.
	zero := new(big.Rat)
	p, err := WinningProbabilityPiRat([]*big.Rat{zero, zero, zero}, nil, rat(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Cmp(rat(1, 6)) != 0 {
		t.Errorf("P(0,0,0) = %v, want exactly 1/6", p)
	}
	// The symmetric symbolic curve at β = 1/2 must agree exactly.
	half := rat(1, 2)
	p, err = WinningProbabilityPiRat([]*big.Rat{half, half, half}, nil, rat(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	pw, err := SymbolicSymmetric(3, rat(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := pw.Eval(half)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cmp(want) != 0 {
		t.Errorf("general exact %v vs symbolic symmetric %v", p, want)
	}
}

func TestWinningProbabilityRatValidation(t *testing.T) {
	half := rat(1, 2)
	one := rat(1, 1)
	if _, err := WinningProbabilityPiRat([]*big.Rat{half}, nil, one); err == nil {
		t.Error("single player: expected error")
	}
	if _, err := WinningProbabilityPiRat([]*big.Rat{half, half}, nil, nil); err == nil {
		t.Error("nil capacity: expected error")
	}
	if _, err := WinningProbabilityPiRat([]*big.Rat{half, nil}, nil, one); err == nil {
		t.Error("nil threshold: expected error")
	}
	if _, err := WinningProbabilityPiRat([]*big.Rat{half, rat(3, 2)}, nil, one); err == nil {
		t.Error("threshold > 1: expected error")
	}
	many := make([]*big.Rat, MaxNExact+1)
	for i := range many {
		many[i] = half
	}
	if _, err := WinningProbabilityPiRat(many, nil, one); !errors.Is(err, problem.ErrPlayerCap) {
		t.Errorf("too many players: got %v, want a player-cap refusal", err)
	}
	if _, err := WinningProbabilityPiRat([]*big.Rat{half, half}, []*big.Rat{one}, one); err == nil {
		t.Error("one input range for two players: expected error")
	}
	if _, err := WinningProbabilityPiRat([]*big.Rat{half, half}, []*big.Rat{one, new(big.Rat)}, one); err == nil {
		t.Error("zero input range: expected error")
	}
}

func TestOptimalityResidualAtOptimumChangesSign(t *testing.T) {
	// Theorem 5.2: the residual dP/dβ is positive just below β* and
	// negative just above, and the second derivative at (near) β* is
	// negative. β* for n=3 is irrational, so probe bracketing rationals.
	below := rat(62, 100)
	above := rat(63, 100)
	rb, err := OptimalityResidual(3, rat(1, 1), below)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := OptimalityResidual(3, rat(1, 1), above)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Sign() <= 0 || ra.Sign() >= 0 {
		t.Errorf("residuals around β*: below %v (want >0), above %v (want <0)", rb, ra)
	}
	sd, err := SecondDerivative(3, rat(1, 1), below)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Sign() >= 0 {
		t.Errorf("second derivative near β* = %v, want negative (maximum)", sd)
	}
}

func TestOptimalityResidualMatchesFiniteDifference(t *testing.T) {
	const h = 1e-7
	for _, bnum := range []int64{20, 45, 70, 90} {
		beta := rat(bnum, 100)
		bf, _ := beta.Float64()
		exact, err := OptimalityResidual(4, rat(4, 3), beta)
		if err != nil {
			t.Fatal(err)
		}
		pPlus, err := SymmetricWinningProbability(4, 4.0/3, bf+h)
		if err != nil {
			t.Fatal(err)
		}
		pMinus, err := SymmetricWinningProbability(4, 4.0/3, bf-h)
		if err != nil {
			t.Fatal(err)
		}
		numeric := (pPlus - pMinus) / (2 * h)
		ef, _ := exact.Float64()
		if math.Abs(numeric-ef) > 1e-4 {
			t.Errorf("β=%v: symbolic dP/dβ %v vs numeric %v", bf, ef, numeric)
		}
	}
}

func TestOptimalityResidualValidation(t *testing.T) {
	if _, err := OptimalityResidual(3, rat(1, 1), nil); err == nil {
		t.Error("nil β: expected error")
	}
	if _, err := OptimalityResidual(3, rat(1, 1), rat(3, 2)); err == nil {
		t.Error("β > 1: expected error")
	}
	if _, err := OptimalityResidual(1, rat(1, 1), rat(1, 2)); err == nil {
		t.Error("n=1: expected error")
	}
	if _, err := SecondDerivative(3, rat(1, 1), rat(-1, 2)); err == nil {
		t.Error("β < 0: expected error")
	}
	if _, err := SecondDerivative(1, rat(1, 1), rat(1, 2)); err == nil {
		t.Error("n=1: expected error")
	}
}

func TestSweepOptimaNonUniform(t *testing.T) {
	ns := []int{3, 4, 5, 6}
	res, err := SweepOptima(ns, func(n int) *big.Rat { return big.NewRat(int64(n), 3) })
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ns) {
		t.Fatalf("got %d results", len(res))
	}
	allEqual := true
	for i := 1; i < len(res); i++ {
		if math.Abs(res[i].BetaFloat-res[0].BetaFloat) > 1e-6 {
			allEqual = false
		}
	}
	if allEqual {
		t.Error("β* constant across n: non-uniformity not reproduced")
	}
	if _, err := SweepOptima(nil, func(int) *big.Rat { return rat(1, 1) }); err == nil {
		t.Error("empty list: expected error")
	}
	if _, err := SweepOptima(ns, nil); err == nil {
		t.Error("nil scaling: expected error")
	}
	if _, err := SweepOptima([]int{1}, func(int) *big.Rat { return rat(1, 1) }); err == nil {
		t.Error("n=1 in list: expected error")
	}
}

func TestPolyFromCondition(t *testing.T) {
	cond := poly.RatPolyFromInt64(9, -21).Add(poly.RatPolyFromInt64(0, 0, 1).Scale(rat(21, 2)))
	monic := PolyFromCondition(cond)
	if monic.LeadingCoeff().Cmp(rat(1, 1)) != 0 {
		t.Errorf("leading coefficient = %v, want 1", monic.LeadingCoeff())
	}
	if monic.Coeff(0).Cmp(rat(6, 7)) != 0 {
		t.Errorf("constant term = %v, want 6/7", monic.Coeff(0))
	}
	if !PolyFromCondition(poly.RatPoly{}).IsZero() {
		t.Error("zero condition should stay zero")
	}
}

func TestExactSymmetricAgreementProperty(t *testing.T) {
	// Property: exact general Theorem 5.1 with equal rational thresholds
	// equals the symbolic symmetric curve, exactly.
	pw, err := SymbolicSymmetric(3, rat(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	f := func(num uint8) bool {
		beta := big.NewRat(int64(num%33), 32)
		general, err := WinningProbabilityPiRat([]*big.Rat{beta, beta, beta}, nil, rat(1, 1))
		if err != nil {
			return false
		}
		symbolic, err := pw.Eval(beta)
		if err != nil {
			return false
		}
		return general.Cmp(symbolic) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGeneralPathPastTheSupport pins the homogeneous general path on
// equal-threshold instances where every bin-0 box fits under δ (n·a < δ).
// There dist.AllSubsetVolumes, which clamps only below, returns N₀ cells
// above their box volume Π a, and the evaluator uses those raw volumes.
// The pins are the errors measured when this test was written, rounded up
// to two digits: the distance to the rational oracle (CertifyThresholds,
// exact at the float thresholds) and the largest N₀ overshoot
// vol/Πa − 1. The symmetric
// Irwin–Hall ladder stays within 3e-17 of the oracle on the same
// instances, so the general path's error is its own.
func TestGeneralPathPastTheSupport(t *testing.T) {
	for _, c := range []struct {
		n                    int
		a, capacity          float64
		maxErr, maxOvershoot float64
	}{
		{9, 2.0 / 7, 3, 2.7e-13, 1.7e-11},
		{9, 2.0 / 7, 2.75, 3.4e-13, 1.3e-11},
		{8, 0.3, 2.5, 7.9e-14, 0},
		{10, 0.25, 3, 1.4e-13, 2.9e-14},
		{10, 0.2, 2.2, 3.6e-12, 7.1e-11},
	} {
		a := make([]float64, c.n)
		for i := range a {
			a[i] = c.a
		}
		p, err := WinningProbability(a, c.capacity, nil)
		if err != nil {
			t.Fatal(err)
		}
		exact, _, err := CertifyThresholds(a, nil, c.capacity)
		if err != nil {
			t.Fatal(err)
		}
		sym, err := SymmetricWinningProbability(c.n, c.capacity, c.a)
		if err != nil {
			t.Fatal(err)
		}
		vol, _, err := dist.AllSubsetVolumes(nil, a, c.capacity, nil)
		if err != nil {
			t.Fatal(err)
		}
		box, err := combin.SubsetProducts(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		overshoot := 0.0
		for mask, v := range vol {
			overshoot = math.Max(overshoot, v/box[mask]-1)
		}
		t.Logf("n=%d a=%v δ=%v: error %.3g, overshoot %.3g, symmetric %.3g", c.n, c.a, c.capacity, math.Abs(p-exact), overshoot, math.Abs(sym-exact))
		if e := math.Abs(p - exact); e > c.maxErr {
			t.Errorf("n=%d a=%v δ=%v: general path off the oracle by %.2g, pinned %.2g", c.n, c.a, c.capacity, e, c.maxErr)
		}
		if overshoot > c.maxOvershoot {
			t.Errorf("n=%d a=%v δ=%v: N₀ overshoot %.2g, pinned %.2g", c.n, c.a, c.capacity, overshoot, c.maxOvershoot)
		}
		if e := math.Abs(sym - exact); e > 3e-17 {
			t.Errorf("n=%d a=%v δ=%v: symmetric ladder off the oracle by %.2g", c.n, c.a, c.capacity, e)
		}
	}
}
