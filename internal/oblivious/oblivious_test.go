package oblivious

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/sim"
)

func TestPhiSymmetryLemma44(t *testing.T) {
	// Lemma 4.4: φ_t(k) = φ_t(n - k).
	for n := 2; n <= 10; n++ {
		for _, capacity := range []float64{0.7, 1, float64(n) / 3, 2.5} {
			for k := 0; k <= n; k++ {
				a, err := Phi(n, k, capacity)
				if err != nil {
					t.Fatal(err)
				}
				b, err := Phi(n, n-k, capacity)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(a-b) > 1e-14 {
					t.Errorf("n=%d δ=%v: φ(%d)=%v != φ(%d)=%v", n, capacity, k, a, n-k, b)
				}
			}
		}
	}
}

func TestPhiValidation(t *testing.T) {
	if _, err := Phi(3, -1, 1); err == nil {
		t.Error("k=-1: expected error")
	}
	if _, err := Phi(3, 4, 1); err == nil {
		t.Error("k>n: expected error")
	}
	if _, err := Phi(1, 0, 1); err == nil {
		t.Error("n=1: expected error")
	}
	if _, err := Phi(3, 1, 0); err == nil {
		t.Error("zero capacity: expected error")
	}
	if _, err := Phi(MaxN+1, 0, 1); err == nil {
		t.Error("n over limit: expected error")
	}
}

func TestWinningProbabilityKnownValueN3(t *testing.T) {
	// n=3, δ=1, α=(1/2,1/2,1/2): P = (1/8)Σ C(3,k) F_k F_{3-k}
	// = (1/8)(1·1/6 + 3·(1·1/2) + 3·(1/2·1) + 1/6) = 5/12.
	p, err := WinningProbability([]float64{0.5, 0.5, 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-5.0/12) > 1e-14 {
		t.Errorf("P = %.15f, want 5/12 = %.15f", p, 5.0/12)
	}
}

func TestWinningProbabilityDeterministicVectors(t *testing.T) {
	// α = (1, 1, 0): players 1,2 in bin 0, player 3 in bin 1.
	// Win iff x1 + x2 ≤ 1 (prob 1/2) — x3 ≤ 1 always.
	p, err := WinningProbability([]float64{1, 1, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.5) > 1e-14 {
		t.Errorf("P = %v, want 0.5", p)
	}
	// All in one bin: win iff the sum of all three is ≤ 1, prob 1/6.
	p, err = WinningProbability([]float64{1, 1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1.0/6) > 1e-14 {
		t.Errorf("P(all bin 0) = %v, want 1/6", p)
	}
}

func TestWinningProbabilityValidation(t *testing.T) {
	if _, err := WinningProbability([]float64{0.5}, 1); err == nil {
		t.Error("single player: expected error")
	}
	if _, err := WinningProbability([]float64{0.5, 1.2}, 1); err == nil {
		t.Error("α > 1: expected error")
	}
	if _, err := WinningProbability([]float64{0.5, math.NaN()}, 1); err == nil {
		t.Error("NaN α: expected error")
	}
	if _, err := WinningProbability([]float64{0.5, 0.5}, -1); err == nil {
		t.Error("negative capacity: expected error")
	}
}

func TestSymmetricMatchesGeneralVector(t *testing.T) {
	for _, a := range []float64{0, 0.25, 0.5, 0.8, 1} {
		alphas := []float64{a, a, a, a}
		general, err := WinningProbability(alphas, 4.0/3)
		if err != nil {
			t.Fatal(err)
		}
		symmetric, err := SymmetricWinningProbability(4, 4.0/3, a)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(general-symmetric) > 1e-13 {
			t.Errorf("a=%v: general %v vs symmetric %v", a, general, symmetric)
		}
	}
	if _, err := SymmetricWinningProbability(4, 1, -0.1); err == nil {
		t.Error("a<0: expected error")
	}
}

func TestWinningProbabilityAgainstSimulation(t *testing.T) {
	alphas := []float64{0.3, 0.6, 0.5, 0.7}
	capacity := 4.0 / 3
	analytic, err := WinningProbability(alphas, capacity)
	if err != nil {
		t.Fatal(err)
	}
	rules := make([]model.LocalRule, len(alphas))
	for i, a := range alphas {
		r, err := model.NewObliviousRule(a)
		if err != nil {
			t.Fatal(err)
		}
		rules[i] = r
	}
	sys, err := model.NewSystem(rules, capacity)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.WinProbability(sys, sim.Config{Trials: 400000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.P-analytic) > 4*res.StdErr {
		t.Errorf("Theorem 4.1 gives %v, simulation %v ± %v", analytic, res.P, res.StdErr)
	}
}

func TestOptimalityResidualVanishesAtHalf(t *testing.T) {
	// Corollary 4.2 at α = (1/2, ..., 1/2): every partial derivative is 0.
	for n := 2; n <= 8; n++ {
		alphas := make([]float64, n)
		for i := range alphas {
			alphas[i] = 0.5
		}
		for _, capacity := range []float64{1, float64(n) / 3} {
			for k := 0; k < n; k++ {
				r, err := OptimalityResidual(alphas, capacity, k)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(r) > 1e-12 {
					t.Errorf("n=%d δ=%v k=%d: residual %v, want 0", n, capacity, k, r)
				}
			}
		}
	}
}

func TestOptimalityResidualMatchesFiniteDifference(t *testing.T) {
	alphas := []float64{0.3, 0.7, 0.45, 0.6}
	capacity := 1.2
	const h = 1e-6
	for k := range alphas {
		analytic, err := OptimalityResidual(alphas, capacity, k)
		if err != nil {
			t.Fatal(err)
		}
		plus := append([]float64(nil), alphas...)
		minus := append([]float64(nil), alphas...)
		plus[k] += h
		minus[k] -= h
		pp, err := WinningProbability(plus, capacity)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := WinningProbability(minus, capacity)
		if err != nil {
			t.Fatal(err)
		}
		numeric := (pp - pm) / (2 * h)
		if math.Abs(analytic-numeric) > 1e-6 {
			t.Errorf("k=%d: analytic gradient %v vs numeric %v", k, analytic, numeric)
		}
	}
}

func TestOptimalityResidualValidation(t *testing.T) {
	alphas := []float64{0.5, 0.5}
	if _, err := OptimalityResidual(alphas, 1, -1); err == nil {
		t.Error("k=-1: expected error")
	}
	if _, err := OptimalityResidual(alphas, 1, 2); err == nil {
		t.Error("k out of range: expected error")
	}
	if _, err := OptimalityResidual([]float64{0.5}, 1, 0); err == nil {
		t.Error("single player: expected error")
	}
}

func TestOptimalityResidualNorm(t *testing.T) {
	norm, err := OptimalityResidualNorm([]float64{0.5, 0.5, 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if norm > 1e-12 {
		t.Errorf("gradient norm at optimum = %v, want 0", norm)
	}
	norm, err = OptimalityResidualNorm([]float64{0.9, 0.1, 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if norm < 1e-4 {
		t.Errorf("gradient norm away from optimum = %v, should be clearly positive", norm)
	}
}

func TestHalfIsSymmetricMaximumProperty(t *testing.T) {
	// Theorem 4.3 in its symmetric scope: among algorithms where every
	// player uses the same α, no value beats α = 1/2.
	f := func(aRaw uint16, nRaw, capRaw uint8) bool {
		a := float64(aRaw) / 65535
		n := 2 + int(nRaw%7)
		capacity := 0.5 + float64(capRaw)/128
		p, err := SymmetricWinningProbability(n, capacity, a)
		if err != nil {
			return false
		}
		opt, err := Optimal(n, capacity)
		if err != nil {
			return false
		}
		return p <= opt.WinProbability+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHalfIsSymmetricMaximumByScalarSearch(t *testing.T) {
	// Numeric cross-check of Theorem 4.3: maximizing the symmetric curve
	// over a ∈ [0, 1] lands on 1/2 for every n.
	for _, n := range []int{3, 4, 5, 8} {
		capacity := float64(n) / 3
		res, err := optimize.GridThenGoldenMax(nil, func(a float64) float64 {
			p, err := SymmetricWinningProbability(n, capacity, a)
			if err != nil {
				return math.Inf(-1)
			}
			return p
		}, 0, 1, 201, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.X-0.5) > 1e-5 {
			t.Errorf("n=%d: symmetric argmax = %v, want 1/2", n, res.X)
		}
		opt, err := Optimal(n, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Value-opt.WinProbability) > 1e-10 {
			t.Errorf("n=%d: symmetric max %v vs Theorem 4.3 value %v", n, res.Value, opt.WinProbability)
		}
	}
}

func TestMultilinearVertexOptimumBeatsHalf(t *testing.T) {
	// Reproduction finding: the winning probability is multilinear in α,
	// so the global oblivious optimum is a deterministic balanced
	// partition, which strictly beats the paper's α = 1/2 algorithm.
	for _, n := range []int{3, 4, 5} {
		capacity := float64(n) / 3
		det, err := OptimalDeterministic(n, capacity)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Optimal(n, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if det.WinProbability <= opt.WinProbability {
			t.Errorf("n=%d: deterministic %v should beat symmetric 1/2 value %v",
				n, det.WinProbability, opt.WinProbability)
		}
		// The best partition is balanced (φ is maximized at ⌊n/2⌋ here).
		if det.Bin1Count != n/2 {
			t.Errorf("n=%d: best bin-1 count = %d, want %d", n, det.Bin1Count, n/2)
		}
		// Its probability equals φ(⌊n/2⌋) by construction; verify against
		// a direct vertex evaluation through Theorem 4.1.
		alphas := make([]float64, n)
		for i := range alphas {
			if i < det.Bin1Count {
				alphas[i] = 0 // bin 1
			} else {
				alphas[i] = 1 // bin 0
			}
		}
		p, err := WinningProbability(alphas, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-det.WinProbability) > 1e-13 {
			t.Errorf("n=%d: vertex evaluation %v vs φ(k) %v", n, p, det.WinProbability)
		}
	}
	// Concrete numbers for the n=3, δ=1 instance: 1/2 vs 5/12.
	det, err := OptimalDeterministic(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(det.WinProbability-0.5) > 1e-14 {
		t.Errorf("n=3 balanced split P = %v, want 1/2", det.WinProbability)
	}
}

func TestCoordinateAscentFindsVertexOptimum(t *testing.T) {
	// Free (non-symmetric) ascent over the probability cube must reach the
	// deterministic vertex optimum, not the interior saddle at 1/2.
	for _, n := range []int{3, 4, 5} {
		capacity := float64(n) / 3
		det, err := OptimalDeterministic(n, capacity)
		if err != nil {
			t.Fatal(err)
		}
		start := make([]float64, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		for i := range start {
			start[i] = 0.2 + 0.1*float64(i%3)
			hi[i] = 1
		}
		res, err := optimize.CoordinateAscentBox(nil, func(x []float64) float64 {
			p, err := WinningProbability(x, capacity)
			if err != nil {
				return math.Inf(-1)
			}
			return p
		}, start, lo, hi, 60, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Value-det.WinProbability) > 1e-6 {
			t.Errorf("n=%d: ascent found %v, vertex optimum %v", n, res.Value, det.WinProbability)
		}
	}
}

func TestOptimalDeterministicValidation(t *testing.T) {
	if _, err := OptimalDeterministic(1, 1); err == nil {
		t.Error("n=1: expected error")
	}
	if _, err := OptimalDeterministic(3, 0); err == nil {
		t.Error("zero capacity: expected error")
	}
}

func TestOptimalKnownValues(t *testing.T) {
	// n=3, δ=1: optimal oblivious P = 5/12.
	opt, err := Optimal(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Alpha != 0.5 || opt.N != 3 || opt.Capacity != 1 {
		t.Errorf("metadata wrong: %+v", opt)
	}
	if math.Abs(opt.WinProbability-5.0/12) > 1e-14 {
		t.Errorf("optimal P = %.15f, want 5/12", opt.WinProbability)
	}
}

func TestWinningProbabilityRatMatchesFloat(t *testing.T) {
	alphas := []*big.Rat{big.NewRat(1, 3), big.NewRat(2, 3), big.NewRat(1, 2), big.NewRat(3, 5)}
	af := make([]float64, len(alphas))
	for i, a := range alphas {
		af[i], _ = a.Float64()
	}
	capacity := big.NewRat(4, 3)
	exact, err := WinningProbabilityRat(alphas, capacity)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := WinningProbability(af, 4.0/3)
	if err != nil {
		t.Fatal(err)
	}
	ef, _ := exact.Float64()
	if math.Abs(approx-ef) > 1e-12 {
		t.Errorf("float %v vs exact %v", approx, ef)
	}

	// The symmetric curve at δ = n/3, up to n = 32, to 1e-14 absolute:
	// every F_k(δ) comes from the convex Irwin-Hall ladder, which keeps
	// full accuracy where the alternating series cancels.
	for _, n := range []int{3, 8, 16, 20, 24, 28, 32} {
		cf := float64(n) / 3
		capacity := new(big.Rat).SetFloat64(cf)
		for _, a := range []*big.Rat{big.NewRat(0, 1), big.NewRat(1, 4), big.NewRat(1, 2), big.NewRat(5, 7), big.NewRat(1, 1)} {
			af, _ := a.Float64()
			as := make([]*big.Rat, n)
			for i := range as {
				as[i] = new(big.Rat).SetFloat64(af)
			}
			exact, err := WinningProbabilityRat(as, capacity)
			if err != nil {
				t.Fatal(err)
			}
			approx, err := SymmetricWinningProbability(n, cf, af)
			if err != nil {
				t.Fatal(err)
			}
			if ef, _ := exact.Float64(); math.Abs(approx-ef) > 1e-14 {
				t.Errorf("n=%d a=%v: float %v vs exact %v (off by %.2e)", n, a, approx, ef, math.Abs(approx-ef))
			}
		}
	}
}

func TestWinningProbabilityRatExactHalfN3(t *testing.T) {
	half := big.NewRat(1, 2)
	exact, err := WinningProbabilityRat([]*big.Rat{half, half, half}, big.NewRat(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if exact.Cmp(big.NewRat(5, 12)) != 0 {
		t.Errorf("exact P = %v, want exactly 5/12", exact)
	}
}

func TestWinningProbabilityRatValidation(t *testing.T) {
	half := big.NewRat(1, 2)
	one := big.NewRat(1, 1)
	if _, err := WinningProbabilityRat([]*big.Rat{half}, one); err == nil {
		t.Error("single player: expected error")
	}
	if _, err := WinningProbabilityRat([]*big.Rat{half, half}, nil); err == nil {
		t.Error("nil capacity: expected error")
	}
	if _, err := WinningProbabilityRat([]*big.Rat{half, nil}, one); err == nil {
		t.Error("nil α: expected error")
	}
	if _, err := WinningProbabilityRat([]*big.Rat{half, big.NewRat(3, 2)}, one); err == nil {
		t.Error("α > 1: expected error")
	}
	if _, err := WinningProbabilityRat([]*big.Rat{half, half}, big.NewRat(0, 1)); err == nil {
		t.Error("zero capacity: expected error")
	}
}

func TestWinningProbabilityInvariantUnderPermutationProperty(t *testing.T) {
	f := func(aRaw, bRaw, cRaw uint16) bool {
		a := float64(aRaw) / 65535
		b := float64(bRaw) / 65535
		c := float64(cRaw) / 65535
		p1, err1 := WinningProbability([]float64{a, b, c}, 1)
		p2, err2 := WinningProbability([]float64{c, a, b}, 1)
		return err1 == nil && err2 == nil && math.Abs(p1-p2) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComplementSymmetryProperty(t *testing.T) {
	// Swapping bins (α → 1-α) leaves the winning probability unchanged.
	f := func(aRaw, bRaw, cRaw uint16, capRaw uint8) bool {
		alphas := []float64{float64(aRaw) / 65535, float64(bRaw) / 65535, float64(cRaw) / 65535}
		comp := []float64{1 - alphas[0], 1 - alphas[1], 1 - alphas[2]}
		capacity := 0.4 + float64(capRaw)/100
		p1, err1 := WinningProbability(alphas, capacity)
		p2, err2 := WinningProbability(comp, capacity)
		return err1 == nil && err2 == nil && math.Abs(p1-p2) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
