package nonoblivious

import (
	"errors"
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/combin"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/oblivious"
	"repro/internal/optimize"
	"repro/internal/poly"
	"repro/internal/problem"
	"repro/internal/sim"
)

func rat(a, b int64) *big.Rat { return big.NewRat(a, b) }

func TestWinningProbabilityValidation(t *testing.T) {
	if _, err := WinningProbability([]float64{0.5}, 1, nil); err == nil {
		t.Error("single player: expected error")
	}
	if _, err := WinningProbability(make([]float64, MaxNGeneral+1), 1, nil); err == nil {
		t.Error("too many players: expected error")
	}
	if _, err := WinningProbability([]float64{0.5, 1.5}, 1, nil); err == nil {
		t.Error("threshold > 1: expected error")
	}
	if _, err := WinningProbability([]float64{0.5, math.NaN()}, 1, nil); err == nil {
		t.Error("NaN threshold: expected error")
	}
	if _, err := WinningProbability([]float64{0.5, 0.5}, 0, nil); err == nil {
		t.Error("zero capacity: expected error")
	}
}

func TestWinningProbabilityEndpoints(t *testing.T) {
	// β = 0: everyone goes to bin 1, so P = F_n(δ) (Irwin-Hall).
	p, err := WinningProbability([]float64{0, 0, 0}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1.0/6) > 1e-12 {
		t.Errorf("P(all thresholds 0) = %v, want 1/6", p)
	}
	// β = 1: everyone goes to bin 0, same by symmetry.
	p, err = WinningProbability([]float64{1, 1, 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1.0/6) > 1e-12 {
		t.Errorf("P(all thresholds 1) = %v, want 1/6", p)
	}
}

func TestSymmetricMatchesGeneralEqualThresholds(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7} {
		capacity := float64(n) / 3
		for beta := 0.0; beta <= 1.0001; beta += 0.1 {
			b := math.Min(beta, 1)
			ths := make([]float64, n)
			for i := range ths {
				ths[i] = b
			}
			general, err := WinningProbability(ths, capacity, nil)
			if err != nil {
				t.Fatal(err)
			}
			symmetric, err := SymmetricWinningProbability(n, capacity, b)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(general-symmetric) > 1e-11 {
				t.Errorf("n=%d β=%v: general %v vs symmetric %v", n, b, general, symmetric)
			}
		}
	}
}

func TestSymmetricWinningProbabilityPaperN3Polynomials(t *testing.T) {
	// Section 5.2.1 closed forms for n=3, δ=1.
	low := func(b float64) float64 { return 1.0/6 + 1.5*b*b - 0.5*b*b*b }
	high := func(b float64) float64 { return -11.0/6 + 9*b - 10.5*b*b + 3.5*b*b*b }
	for b := 0.0; b <= 1.00001; b += 0.01 {
		bb := math.Min(b, 1)
		want := low(bb)
		if bb > 0.5 {
			want = high(bb)
		}
		got, err := SymmetricWinningProbability(3, 1, bb)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("β=%v: P = %.15f, paper polynomial %.15f", bb, got, want)
		}
	}
}

func TestSymmetricValidation(t *testing.T) {
	if _, err := SymmetricWinningProbability(1, 1, 0.5); err == nil {
		t.Error("n=1: expected error")
	}
	// The cap is the last exact float64 Pascal row, shared with the
	// oblivious closed form; past it the refusal is a player-cap error.
	if MaxNSymmetric != oblivious.MaxN {
		t.Errorf("MaxNSymmetric = %d, oblivious.MaxN = %d; want one value", MaxNSymmetric, oblivious.MaxN)
	}
	if _, err := combin.PascalRow(MaxNSymmetric); err != nil {
		t.Errorf("Pascal row %d: %v", MaxNSymmetric, err)
	}
	if _, err := combin.PascalRow(MaxNSymmetric + 1); err == nil {
		t.Errorf("Pascal row %d should exceed exact float64 range", MaxNSymmetric+1)
	}
	if p, err := SymmetricWinningProbability(MaxNSymmetric, float64(MaxNSymmetric)/3, 0.6); err != nil || !(p > 0 && p < 1) {
		t.Errorf("n at limit: P = %v, %v", p, err)
	}
	if _, err := SymmetricWinningProbability(MaxNSymmetric+1, 1, 0.5); !errors.Is(err, problem.ErrPlayerCap) {
		t.Errorf("n over limit: error %v, want a player-cap refusal", err)
	}
	if _, err := SymmetricWinningProbability(3, -1, 0.5); err == nil {
		t.Error("negative capacity: expected error")
	}
	if _, err := SymmetricWinningProbability(3, 1, 1.5); err == nil {
		t.Error("β > 1: expected error")
	}
	if _, err := SymmetricWinningProbability(3, 1, math.NaN()); err == nil {
		t.Error("NaN β: expected error")
	}
}

func TestSymbolicSymmetricMatchesPaperN3(t *testing.T) {
	pw, err := SymbolicSymmetric(3, rat(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !pw.IsContinuous() {
		t.Error("P(β) should be continuous")
	}
	// Paper's two distinct polynomials.
	lowPoly, err := poly.RatPolyFromFracs([]int64{1, 0, 3, -1}, []int64{6, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	highPoly, err := poly.RatPolyFromFracs([]int64{-11, 9, -21, 7}, []int64{6, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	half := rat(1, 2)
	for i := 0; i < pw.NumPieces(); i++ {
		piece, iv, err := pw.Piece(i)
		if err != nil {
			t.Fatal(err)
		}
		want := lowPoly
		if iv.Lo.Cmp(half) >= 0 {
			want = highPoly
		}
		if !piece.Equal(want) {
			t.Errorf("piece %d on [%v, %v] = %v, want %v", i, iv.Lo, iv.Hi, piece, want)
		}
	}
}

// TestSymbolicSymmetricMatchesFloatEverywhere checks the float64 curve
// against the exact piecewise polynomial to 1e-14 absolute: at 65 rational
// thresholds for small n, and at 11 (β = i/10, 0 and 1 included) for
// n = 16, 20 and 25, where alternating binomial series lose up to the third
// decimal. Every case builds the whole curve and checks its continuity.
func TestSymbolicSymmetricMatchesFloatEverywhere(t *testing.T) {
	cases := []struct {
		n        int
		capacity *big.Rat
	}{
		{2, rat(1, 1)},
		{3, rat(1, 1)},
		{4, rat(4, 3)},
		{5, rat(5, 3)},
		{6, rat(2, 1)},
		{4, rat(1, 2)},
		{16, rat(5, 1)},
		{20, rat(5, 1)},
		{25, rat(8, 1)},
	}
	for _, c := range cases {
		cf, _ := c.capacity.Float64()
		pw, err := SymbolicSymmetric(c.n, c.capacity)
		if err != nil {
			t.Fatal(err)
		}
		if !pw.IsContinuous() {
			t.Errorf("n=%d δ=%v: P(β) should be continuous", c.n, c.capacity)
		}
		steps := int64(64)
		if c.n > 6 {
			steps = 10
		}
		for num := int64(0); num <= steps; num++ {
			bf, _ := rat(num, steps).Float64()
			exact, err := pw.Eval(new(big.Rat).SetFloat64(bf))
			if err != nil {
				t.Fatal(err)
			}
			ef, _ := exact.Float64()
			approx, err := SymmetricWinningProbability(c.n, cf, bf)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(approx-ef) > 1e-14 {
				t.Errorf("n=%d δ=%v β=%v: float %v vs exact %v (off by %.2e)", c.n, c.capacity, bf, approx, ef, math.Abs(approx-ef))
			}
		}
	}
}

func TestSymbolicSymmetricValidation(t *testing.T) {
	if _, err := SymbolicSymmetric(1, rat(1, 1)); err == nil {
		t.Error("n=1: expected error")
	}
	if _, err := SymbolicSymmetric(3, nil); err == nil {
		t.Error("nil capacity: expected error")
	}
	if _, err := SymbolicSymmetric(3, rat(0, 1)); err == nil {
		t.Error("zero capacity: expected error")
	}
	if _, err := SymbolicSymmetric(MaxNSymbolic+1, rat(1, 1)); err == nil {
		t.Error("n over limit: expected error")
	}
}

func TestOptimalSymmetricPaperN3(t *testing.T) {
	// The headline Section 5.2.1 result: β* = 1 - sqrt(1/7), P* ≈ 0.545,
	// settling the Papadimitriou-Yannakakis conjecture.
	res, err := OptimalSymmetric(3, rat(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	wantBeta := 1 - math.Sqrt(1.0/7)
	if math.Abs(res.BetaFloat-wantBeta) > 1e-15 {
		t.Errorf("β* = %.17g, want 1-sqrt(1/7) = %.17g", res.BetaFloat, wantBeta)
	}
	if math.Abs(res.WinProbabilityFloat-0.545) > 1e-3 {
		t.Errorf("P* = %.6f, want ≈ 0.545 (paper)", res.WinProbabilityFloat)
	}
	// The optimality condition on the winning piece is the paper's
	// 9 - 21β + (21/2)β², i.e. (21/2)(β² - 2β + 6/7).
	if res.Condition.IsZero() {
		t.Fatal("interior optimum should carry its optimality condition")
	}
	scaled := res.Condition.Scale(rat(2, 21))
	want, err := poly.RatPolyFromFracs([]int64{6, -2, 1}, []int64{7, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !scaled.Equal(want) {
		t.Errorf("optimality condition = %v, want (21/2)(β² - 2β + 6/7)", res.Condition)
	}
}

func TestOptimalSymmetricPaperN4(t *testing.T) {
	// Section 5.2.2: for n=4, δ=4/3 the paper reports β* ≈ 0.678.
	res, err := OptimalSymmetric(4, rat(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BetaFloat-0.678) > 0.005 {
		t.Errorf("β* = %.6f, want ≈ 0.678 (paper)", res.BetaFloat)
	}
	// Non-uniformity: the n=4 optimum differs from the n=3 optimum.
	n3, err := OptimalSymmetric(3, rat(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BetaFloat-n3.BetaFloat) < 0.01 {
		t.Errorf("n=4 optimum %v too close to n=3 optimum %v: non-uniformity not visible",
			res.BetaFloat, n3.BetaFloat)
	}
}

func TestOptimalSymmetricVersusObliviousOptimum(t *testing.T) {
	// The knowledge trade-off, as actually measured. The paper states that
	// non-oblivious optima "achieve larger winning probabilities than
	// their oblivious counterparts"; that holds at n=3, δ=1 (0.5446 vs
	// 5/12) and n=5, δ=5/3, but the reproduction finds it FAILS at n=4,
	// δ=4/3, where the oblivious 1/2-coin (0.43133) beats the optimal
	// threshold algorithm (0.42854). Both values are validated against
	// Monte-Carlo simulation; EXPERIMENTS.md records the discrepancy.
	cases := []struct {
		n                  int
		capacity           *big.Rat
		thresholdShouldWin bool
	}{
		{3, rat(1, 1), true},
		{4, rat(4, 3), false},
		{5, rat(5, 3), true},
	}
	for _, c := range cases {
		res, err := OptimalSymmetric(c.n, c.capacity)
		if err != nil {
			t.Fatal(err)
		}
		cf, _ := c.capacity.Float64()
		obl, err := oblivious.Optimal(c.n, cf)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.WinProbabilityFloat > obl.WinProbability; got != c.thresholdShouldWin {
			t.Errorf("n=%d δ=%v: threshold optimum %v vs oblivious %v; thresholdWins=%v, want %v",
				c.n, c.capacity, res.WinProbabilityFloat, obl.WinProbability, got, c.thresholdShouldWin)
		}
	}
}

func TestOptimalSymmetricAgainstNumericSweep(t *testing.T) {
	// Independent numeric optimization must agree with the certified
	// symbolic optimum.
	cases := []struct {
		n        int
		capacity *big.Rat
	}{
		{3, rat(1, 1)},
		{4, rat(4, 3)},
		{5, rat(5, 3)},
		{6, rat(2, 1)},
	}
	for _, c := range cases {
		res, err := OptimalSymmetric(c.n, c.capacity)
		if err != nil {
			t.Fatal(err)
		}
		cf, _ := c.capacity.Float64()
		num, err := optimize.GridThenGoldenMax(nil, func(b float64) float64 {
			p, err := SymmetricWinningProbability(c.n, cf, b)
			if err != nil {
				return math.Inf(-1)
			}
			return p
		}, 0, 1, 401, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(num.X-res.BetaFloat) > 1e-6 {
			t.Errorf("n=%d: numeric argmax %v vs symbolic %v", c.n, num.X, res.BetaFloat)
		}
		if math.Abs(num.Value-res.WinProbabilityFloat) > 1e-9 {
			t.Errorf("n=%d: numeric max %v vs symbolic %v", c.n, num.Value, res.WinProbabilityFloat)
		}
	}
}

func TestOptimalIsSymmetricViaFreeOptimization(t *testing.T) {
	// Theorem 5.2 implies the optimal threshold vector is symmetric; a
	// free 3-dimensional search over (a₁, a₂, a₃) must land on the
	// symmetric optimum.
	res, err := OptimalSymmetric(3, rat(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	obj := func(x []float64) float64 {
		p, err := WinningProbability(x, 1, nil)
		if err != nil {
			return math.Inf(-1)
		}
		return p
	}
	nm, err := optimize.NelderMeadMax(nil, obj,
		[]float64{0.4, 0.55, 0.7},
		[]float64{0, 0, 0}, []float64{1, 1, 1},
		0.15, 20000, 1e-15)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nm.Value-res.WinProbabilityFloat) > 1e-6 {
		t.Errorf("free optimum %v vs symmetric optimum %v", nm.Value, res.WinProbabilityFloat)
	}
	for i, x := range nm.X {
		if math.Abs(x-res.BetaFloat) > 1e-2 {
			t.Errorf("free optimum coordinate %d = %v, want symmetric %v", i, x, res.BetaFloat)
		}
	}
}

func TestWinningProbabilityAgainstSimulation(t *testing.T) {
	ths := []float64{0.4, 0.7, 0.55, 0.62}
	capacity := 4.0 / 3
	analytic, err := WinningProbability(ths, capacity, nil)
	if err != nil {
		t.Fatal(err)
	}
	rules := make([]model.LocalRule, len(ths))
	for i, a := range ths {
		r, err := model.NewThresholdRule(a)
		if err != nil {
			t.Fatal(err)
		}
		rules[i] = r
	}
	sys, err := model.NewSystem(rules, capacity)
	if err != nil {
		t.Fatal(err)
	}
	resSim, err := sim.WinProbability(sys, sim.Config{Trials: 400000, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resSim.P-analytic) > 4*resSim.StdErr {
		t.Errorf("Theorem 5.1 gives %v, simulation %v ± %v", analytic, resSim.P, resSim.StdErr)
	}
}

func TestLargeCapacityWinsAlmostSurely(t *testing.T) {
	// δ ≥ n means no bin can ever overflow.
	p, err := SymmetricWinningProbability(4, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1) > 1e-12 {
		t.Errorf("P with δ=n = %v, want 1", p)
	}
}

func TestEndpointsMatchIrwinHallProperty(t *testing.T) {
	// P(β=0) = F_n(δ) and P(β=1) = F_n(δ) for all n, δ.
	f := func(nRaw, capRaw uint8) bool {
		n := 2 + int(nRaw%8)
		capacity := 0.3 + float64(capRaw)/64
		fn, err := dist.IrwinHallCDF(n, capacity)
		if err != nil {
			return false
		}
		p0, err := SymmetricWinningProbability(n, capacity, 0)
		if err != nil {
			return false
		}
		p1, err := SymmetricWinningProbability(n, capacity, 1)
		if err != nil {
			return false
		}
		return math.Abs(p0-fn) < 1e-10 && math.Abs(p1-fn) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComplementSymmetryProperty(t *testing.T) {
	// Swapping bins maps β to 1-β: P(β) = P(1-β)? This does NOT hold in
	// general (the bins see different conditional distributions), but the
	// probability must be invariant under relabeling players.
	f := func(aRaw, bRaw, cRaw uint16, capRaw uint8) bool {
		ths := []float64{float64(aRaw) / 65535, float64(bRaw) / 65535, float64(cRaw) / 65535}
		capacity := 0.4 + float64(capRaw)/100
		p1, err1 := WinningProbability(ths, capacity, nil)
		p2, err2 := WinningProbability([]float64{ths[2], ths[0], ths[1]}, capacity, nil)
		return err1 == nil && err2 == nil && math.Abs(p1-p2) < 1e-11
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThresholdCurveIsAsymmetric(t *testing.T) {
	// Unlike the oblivious curve, P(β) is NOT symmetric about 1/2 (the
	// bin-0 load is a sum of inputs conditioned small, the bin-1 load a
	// sum conditioned large) — which is exactly why the optimum sits at
	// 0.622 rather than 0.5 for n=3, δ=1.
	pLow, err := SymmetricWinningProbability(3, 1, 0.378)
	if err != nil {
		t.Fatal(err)
	}
	pHigh, err := SymmetricWinningProbability(3, 1, 0.622)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pLow-pHigh) < 1e-3 {
		t.Errorf("P(0.378)=%v and P(0.622)=%v should differ (asymmetric curve)", pLow, pHigh)
	}
	if pHigh < pLow {
		t.Errorf("P(0.622)=%v should exceed P(0.378)=%v", pHigh, pLow)
	}
}

func TestOptimalSymmetricValidation(t *testing.T) {
	if _, err := OptimalSymmetric(1, rat(1, 1)); err == nil {
		t.Error("n=1: expected error")
	}
	if _, err := OptimalSymmetric(3, rat(-1, 1)); err == nil {
		t.Error("negative capacity: expected error")
	}
}
