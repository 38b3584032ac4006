package nonoblivious

import (
	"math"
	"math/big"
	"math/rand/v2"
	"runtime"
	"testing"
)

// TestWinningProbabilityPiMatchesHomogeneous pins the heterogeneous
// evaluator to Theorem 5.1 when every range is 1 (spelled out or nil).
func TestWinningProbabilityPiMatchesHomogeneous(t *testing.T) {
	thresholdSets := [][]float64{
		{0.5, 0.5, 0.5},
		{0.3, 0.7, 0.5},
		{1, 0, 0.25, 0.9},
	}
	for _, ths := range thresholdSets {
		for _, capacity := range []float64{0.5, 1, 1.5} {
			want, err := WinningProbability(ths, capacity, nil)
			if err != nil {
				t.Fatalf("WinningProbability(%v, %v, nil): %v", ths, capacity, err)
			}
			ones := make([]float64, len(ths))
			for i := range ones {
				ones[i] = 1
			}
			for _, pi := range [][]float64{nil, ones} {
				got, err := WinningProbabilityPi(ths, pi, capacity, nil)
				if err != nil {
					t.Fatalf("WinningProbabilityPi(%v, %v, %v, nil): %v", ths, pi, capacity, err)
				}
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("WinningProbabilityPi(%v, %v, %v, nil) = %v, want %v", ths, pi, capacity, got, want)
				}
			}
		}
	}
}

// TestWinningProbabilityPiDegenerate pins hand-checkable heterogeneous
// cases.
func TestWinningProbabilityPiDegenerate(t *testing.T) {
	// Thresholds at the top of each range: both players always choose
	// bin 0, so the game wins iff x_0 + x_1 ≤ δ; for π = (1/2, 1), δ = 1
	// that is 3/4 (triangle cut off the (1/2)×1 rectangle).
	got, err := WinningProbabilityPi([]float64{0.5, 1}, []float64{0.5, 1}, 1, nil)
	if err != nil {
		t.Fatalf("WinningProbabilityPi: %v", err)
	}
	if want := 0.75; math.Abs(got-want) > 1e-12 {
		t.Fatalf("all-low = %v, want %v", got, want)
	}

	// Zero thresholds: both players always choose bin 1 (x_i > 0 a.s.),
	// same fit probability on the other bin.
	got, err = WinningProbabilityPi([]float64{0, 0}, []float64{0.5, 1}, 1, nil)
	if err != nil {
		t.Fatalf("WinningProbabilityPi: %v", err)
	}
	if want := 0.75; math.Abs(got-want) > 1e-12 {
		t.Fatalf("all-high = %v, want %v", got, want)
	}
}

// TestWinningProbabilityPiMonteCarlo cross-checks the conditioned
// subset-sum evaluator against direct simulation of the heterogeneous
// threshold game, on a mix of unit and non-unit ranges so both the
// Lemma 2.7 branch and the shift-identity branch are exercised.
func TestWinningProbabilityPiMonteCarlo(t *testing.T) {
	cases := []struct {
		ths, pi  []float64
		capacity float64
	}{
		{[]float64{0.4, 0.6, 0.5}, []float64{0.5, 1, 0.75}, 0.8},
		{[]float64{0.5, 0.5, 0.5}, []float64{0.5, 1, 1}, 1},
		{[]float64{0.3, 0.9}, []float64{2, 0.25}, 1.2},
	}
	for _, tc := range cases {
		exact, err := WinningProbabilityPi(tc.ths, tc.pi, tc.capacity, nil)
		if err != nil {
			t.Fatalf("WinningProbabilityPi(%v, %v, %v, nil): %v", tc.ths, tc.pi, tc.capacity, err)
		}
		rng := rand.New(rand.NewPCG(3, 13))
		const trials = 400_000
		wins := 0
		for trial := 0; trial < trials; trial++ {
			var load0, load1 float64
			for i := range tc.ths {
				x := rng.Float64() * tc.pi[i]
				if x <= tc.ths[i] {
					load0 += x
				} else {
					load1 += x
				}
			}
			if load0 <= tc.capacity && load1 <= tc.capacity {
				wins++
			}
		}
		mc := float64(wins) / trials
		se := math.Sqrt(math.Max(exact*(1-exact), 1e-12) / trials)
		if math.Abs(mc-exact) > 4*se+1e-9 {
			t.Fatalf("case %v/%v/%v: exact %v vs MC %v differ by more than 4σ (σ=%v)",
				tc.ths, tc.pi, tc.capacity, exact, mc, se)
		}
	}
}

// TestWinningProbabilityPiRejects covers the validation paths.
func TestWinningProbabilityPiRejects(t *testing.T) {
	cases := []struct {
		name     string
		ths      []float64
		pi       []float64
		capacity float64
	}{
		{"short pi", []float64{0.5, 0.5}, []float64{0.5}, 1},
		{"long all-ones pi", []float64{0.5, 0.5}, []float64{1, 1, 1}, 1},
		{"short all-ones pi", []float64{0.5, 0.5, 0.5}, []float64{1, 1}, 1},
		{"zero range", []float64{0.5, 0.5}, []float64{0, 1}, 1},
		{"negative range", []float64{0.5, 0.5}, []float64{-1, 2}, 1},
		{"NaN range", []float64{0.5, 0.5}, []float64{math.NaN(), 2}, 1},
		{"bad threshold", []float64{1.5, 0.5}, []float64{0.5, 1}, 1},
		{"bad capacity", []float64{0.5, 0.5}, []float64{0.5, 2}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := WinningProbabilityPi(tc.ths, tc.pi, tc.capacity, nil); err == nil {
				t.Fatalf("WinningProbabilityPi(%v, %v, %v, nil) succeeded, want error", tc.ths, tc.pi, tc.capacity)
			}
		})
	}
}

// TestCertifyThresholds checks the a-posteriori certificate: the oracle
// value at the float point agrees with the float path within the returned
// bound, the bound is ExactErrorBound at the smallest range, and a π of
// the wrong length is refused.
func TestCertifyThresholds(t *testing.T) {
	ths := []float64{0.25, 0.5, 0.75}
	for _, pi := range [][]float64{nil, {0.5, 1.25, 1}} {
		exact, bound, err := CertifyThresholds(ths, pi, 1)
		if err != nil {
			t.Fatalf("pi=%v: %v", pi, err)
		}
		piMin := 1.0
		for _, w := range pi {
			piMin = math.Min(piMin, w)
		}
		if want := ExactErrorBound(3, 1, piMin); bound != want {
			t.Errorf("pi=%v: bound %g, want ExactErrorBound %g", pi, bound, want)
		}
		p, err := WinningProbabilityPi(ths, pi, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-exact) > bound {
			t.Errorf("pi=%v: float %v vs oracle %v exceeds bound %g", pi, p, exact, bound)
		}
	}
	if _, _, err := CertifyThresholds(ths, []float64{1, 1}, 1); err == nil {
		t.Error("CertifyThresholds accepted a π of the wrong length")
	}
}

// TestSharedThresholdMatchesRatOracle pins the shared-threshold bin-1
// table against the rational oracle on random dyadic instances: β = 0
// (nobody can choose bin 0), β = 1 (everyone is bin-0-only or shares β),
// and random β with ranges π ∈ [1/4, 2] so some players have β ≥ π_i and
// small sets' whole residual boxes fit under the threshold, for n ≤ 10.
func TestSharedThresholdMatchesRatOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 2))
	for n := 2; n <= 10; n++ {
		capF, capR := dyadicCapacity(n)
		for trial := 0; trial < 3; trial++ {
			var betaF float64
			var betaR *big.Rat
			switch trial {
			case 0:
				betaF, betaR = 0, new(big.Rat)
			case 1:
				betaF, betaR = 1, big.NewRat(1, 1)
			default:
				betaF, betaR = dyadic64(rng, 8, 56)
			}
			ths := make([]float64, n)
			thsR := make([]*big.Rat, n)
			pis := make([]float64, n)
			pisR := make([]*big.Rat, n)
			piMin := math.Inf(1)
			for i := range ths {
				ths[i], thsR[i] = betaF, betaR
				pis[i], pisR[i] = dyadic64(rng, 16, 128)
				piMin = math.Min(piMin, pis[i])
			}
			got, err := WinningProbabilityPi(ths, pis, capF, nil)
			if err != nil {
				t.Fatalf("n=%d β=%v float: %v", n, betaF, err)
			}
			want, err := WinningProbabilityPiRat(thsR, pisR, capR)
			if err != nil {
				t.Fatalf("n=%d β=%v rat: %v", n, betaF, err)
			}
			wf, _ := want.Float64()
			if d, bound := math.Abs(got-wf), ExactErrorBound(n, capF, piMin); d > bound {
				t.Errorf("n=%d β=%v π=%v: float %v vs oracle %v, |diff| %g exceeds certified bound %g",
					n, betaF, pis, got, wf, d, bound)
			}
		}
	}
}

// TestWinningProbabilityPiBytesPerCall bounds the shared-threshold π
// path's heap use at n = 11: it reuses the bin-0 ladder's scratch for the
// residual widths' tables and the bin-1 base, so a call allocates at
// most six 2^n-entry float64 tables (it needs five) plus small slices.
func TestWinningProbabilityPiBytesPerCall(t *testing.T) {
	const n, calls = 11, 20
	ths := make([]float64, n)
	pis := make([]float64, n)
	for i := range ths {
		ths[i] = 0.4
		pis[i] = 0.6 + 0.05*float64(i)
	}
	run := func() {
		if _, err := WinningProbabilityPi(ths, pis, 3.5, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	const limit = 6*8<<n + 4096
	if perCall > limit {
		t.Errorf("n=%d: %d bytes per call, want at most %d (six 2^n-entry tables plus small slices)", n, perCall, limit)
	}
}
