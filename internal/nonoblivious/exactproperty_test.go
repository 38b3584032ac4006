package nonoblivious

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
)

// dyadicCapacity returns δ = round(n·64/3)/64 as (float64, *big.Rat): a
// capacity near the paper's δ = n/3 regime that is exactly representable
// in both arithmetics, so the float and rational evaluators see the same
// instance bit-for-bit.
func dyadicCapacity(n int) (float64, *big.Rat) {
	k := int64(math.Round(float64(n) * 64 / 3))
	return float64(k) / 64, big.NewRat(k, 64)
}

// dyadic64 returns k/64 with k ~ U{lo, ..., hi} as matching float64 and
// big.Rat values.
func dyadic64(rng *rand.Rand, lo, hi int64) (float64, *big.Rat) {
	k := lo + rng.Int64N(hi-lo+1)
	return float64(k) / 64, big.NewRat(k, 64)
}

// TestWinningProbabilityMatchesRatOracle pins the float64 Theorem 5.1
// fast path against the exact rational oracle on random dyadic threshold
// vectors for every n ≤ 10, within the documented ExactErrorBound.
func TestWinningProbabilityMatchesRatOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 1))
	for n := 2; n <= 10; n++ {
		capF, capR := dyadicCapacity(n)
		bound := ExactErrorBound(n, capF, 1)
		for trial := 0; trial < 3; trial++ {
			ths := make([]float64, n)
			thsR := make([]*big.Rat, n)
			for i := range ths {
				ths[i], thsR[i] = dyadic64(rng, 0, 64)
			}
			got, err := WinningProbability(ths, capF, nil)
			if err != nil {
				t.Fatalf("n=%d float: %v", n, err)
			}
			want, err := WinningProbabilityPiRat(thsR, nil, capR)
			if err != nil {
				t.Fatalf("n=%d rat: %v", n, err)
			}
			wf, _ := want.Float64()
			if d := math.Abs(got - wf); d > bound {
				t.Errorf("n=%d trial %d: float %v vs oracle %v, |diff| %g exceeds certified bound %g",
					n, trial, got, wf, d, bound)
			}
		}
	}
}

// TestWinningProbabilityPiMatchesRatOracle pins the heterogeneous float64
// path (SOS bin-0 table + pruned DFS bin-1 walk) against its rational
// oracle on random dyadic thresholds and input ranges π ∈ [1/2, 2].
func TestWinningProbabilityPiMatchesRatOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 2))
	for n := 2; n <= 10; n++ {
		capF, capR := dyadicCapacity(n)
		for trial := 0; trial < 3; trial++ {
			ths := make([]float64, n)
			thsR := make([]*big.Rat, n)
			pis := make([]float64, n)
			pisR := make([]*big.Rat, n)
			piMin := math.Inf(1)
			for i := range ths {
				ths[i], thsR[i] = dyadic64(rng, 0, 64)
				pis[i], pisR[i] = dyadic64(rng, 32, 128)
				piMin = math.Min(piMin, pis[i])
			}
			bound := ExactErrorBound(n, capF, piMin)
			got, err := WinningProbabilityPi(ths, pis, capF, nil)
			if err != nil {
				t.Fatalf("n=%d float: %v", n, err)
			}
			want, err := WinningProbabilityPiRat(thsR, pisR, capR)
			if err != nil {
				t.Fatalf("n=%d rat: %v", n, err)
			}
			wf, _ := want.Float64()
			if d := math.Abs(got - wf); d > bound {
				t.Errorf("n=%d trial %d: float %v vs oracle %v, |diff| %g exceeds certified bound %g",
					n, trial, got, wf, d, bound)
			}
		}
	}
}

// TestOptimalSymmetricPinnedN3 pins the certified Sturm-isolated optimum
// for the paper's flagship instance (n = 3, δ = 1) to more than 10
// decimal places: β* the root of the monic β² − 2β + 6/7 on the optimal
// piece, and the winning probability there.
func TestOptimalSymmetricPinnedN3(t *testing.T) {
	res, err := OptimalSymmetric(3, big.NewRat(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantBeta = 0.6220355269907728
		wantP    = 0.5446311396758939
	)
	if d := math.Abs(res.BetaFloat - wantBeta); d > 5e-14 {
		t.Errorf("β* = %.16f, want %.16f (|diff| %g)", res.BetaFloat, wantBeta, d)
	}
	if d := math.Abs(res.WinProbabilityFloat - wantP); d > 5e-14 {
		t.Errorf("P* = %.16f, want %.16f (|diff| %g)", res.WinProbabilityFloat, wantP, d)
	}
}

// TestRatOracleN11To14 compares the float evaluator with the rational
// oracle past the n ≤ 10 property tests, on one seeded instance of each
// kind per n = 11…14 at the dyadic δ ≈ n/3: distinct dyadic thresholds on
// π ≡ 1 (the shared-right-end bin-1 table), a shared dyadic β on dyadic
// ranges π ∈ [½, 2] (the shared-β table), and a shared dyadic β with
// c ≥ 3 capable players (π_i > β) and z ≥ 2 point players (π_i ≤ β) at
// random places (the bin-0 class ladder). The pins are the errors
// measured when each instance was added, rounded up to two digits. The
// oracle takes about 5 s in all on a 2-vCPU Xeon, most of it at n = 14.
func TestRatOracleN11To14(t *testing.T) {
	pinned := map[int][3]float64{ // π ≡ 1 distinct, shared β on π, shared β with points
		11: {1.1e-14, 9.5e-16, 3.7e-13},
		12: {8.6e-15, 4.4e-15, 7.7e-15},
		13: {8.6e-15, 7.7e-17, 9.6e-14},
		14: {2.6e-15, 5.0e-15, 8.4e-13},
	}
	rng := rand.New(rand.NewPCG(51, 3))
	points := rand.New(rand.NewPCG(51, 4))
	check := func(n, kind int, got float64, want *big.Rat) {
		t.Helper()
		wf, _ := want.Float64()
		if d := math.Abs(got - wf); d > pinned[n][kind] {
			t.Errorf("n=%d kind %d: float %v vs oracle %v, |diff| %.2g, pinned %.2g", n, kind, got, wf, d, pinned[n][kind])
		}
	}
	for n := 11; n <= MaxNExact; n++ {
		capF, capR := dyadicCapacity(n)
		ths := make([]float64, n)
		thsR := make([]*big.Rat, n)
		for i := range ths {
			ths[i], thsR[i] = dyadic64(rng, 8, 56)
		}
		got, err := WinningProbability(ths, capF, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := WinningProbabilityPiRat(thsR, nil, capR)
		if err != nil {
			t.Fatal(err)
		}
		check(n, 0, got, want)
		betaF, betaR := dyadic64(rng, 16, 48)
		pis := make([]float64, n)
		pisR := make([]*big.Rat, n)
		for i := range ths {
			ths[i], thsR[i] = betaF, betaR
			pis[i], pisR[i] = dyadic64(rng, 32, 128)
		}
		if got, err = WinningProbabilityPi(ths, pis, capF, nil); err != nil {
			t.Fatal(err)
		}
		if want, err = WinningProbabilityPiRat(thsR, pisR, capR); err != nil {
			t.Fatal(err)
		}
		check(n, 1, got, want)
		k := int64(24 + points.IntN(17)) // β = k/64
		betaF, betaR = float64(k)/64, big.NewRat(k, 64)
		z := 2 + points.IntN(n-4)
		place := points.Perm(n)
		for i := range ths {
			ths[i], thsR[i] = betaF, betaR
			pis[i], pisR[i] = dyadic64(points, k+1, 128)
		}
		for _, i := range place[:z] {
			pis[i], pisR[i] = dyadic64(points, 16, k)
		}
		if got, err = WinningProbabilityPi(ths, pis, capF, nil); err != nil {
			t.Fatal(err)
		}
		if want, err = WinningProbabilityPiRat(thsR, pisR, capR); err != nil {
			t.Fatal(err)
		}
		check(n, 2, got, want)
	}
}
