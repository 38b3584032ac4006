package oblivious

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestWinningProbabilityPiMatchesHomogeneous pins the heterogeneous
// evaluator to Theorem 4.1 when every range is 1 (spelled out or nil).
func TestWinningProbabilityPiMatchesHomogeneous(t *testing.T) {
	alphaSets := [][]float64{
		{0.5, 0.5, 0.5},
		{0.3, 0.7, 0.5},
		{1, 0, 0.25, 0.9},
	}
	for _, alphas := range alphaSets {
		for _, capacity := range []float64{0.5, 1, 1.5} {
			want, err := WinningProbability(alphas, capacity)
			if err != nil {
				t.Fatalf("WinningProbability(%v, %v): %v", alphas, capacity, err)
			}
			ones := make([]float64, len(alphas))
			for i := range ones {
				ones[i] = 1
			}
			for _, pi := range [][]float64{nil, ones} {
				got, err := WinningProbabilityPi(alphas, pi, capacity)
				if err != nil {
					t.Fatalf("WinningProbabilityPi(%v, %v, %v): %v", alphas, pi, capacity, err)
				}
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("WinningProbabilityPi(%v, %v, %v) = %v, want %v", alphas, pi, capacity, got, want)
				}
			}
		}
	}
}

// TestWinningProbabilityPiDegenerate pins hand-checkable heterogeneous
// cases: deterministic assignments reduce to products of uniform-sum
// CDFs.
func TestWinningProbabilityPiDegenerate(t *testing.T) {
	// Both players always choose bin 0: win iff x_0 + x_1 ≤ δ with
	// x_0 ~ U[0, 1/2], x_1 ~ U[0, 1]. For δ = 1:
	// P = 1 - P(sum > 1) = 1 - (1/2)·(1/2)²·... compute directly:
	// P(U[0,.5]+U[0,1] ≤ 1) = (area) = 1 - (0.5²/2)/(0.5·1) = 1 - 0.25.
	got, err := WinningProbabilityPi([]float64{1, 1}, []float64{0.5, 1}, 1)
	if err != nil {
		t.Fatalf("WinningProbabilityPi: %v", err)
	}
	if want := 0.75; math.Abs(got-want) > 1e-12 {
		t.Fatalf("both-to-bin0 = %v, want %v", got, want)
	}

	// Split assignment: player 0 (range 1/2) to bin 0, player 1 (range 1)
	// to bin 1. Each load fits capacity 1 surely: P = 1.
	got, err = WinningProbabilityPi([]float64{1, 0}, []float64{0.5, 1}, 1)
	if err != nil {
		t.Fatalf("WinningProbabilityPi: %v", err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("split = %v, want 1", got)
	}
}

// TestWinningProbabilityPiMonteCarlo cross-checks the subset-sum
// evaluator against direct simulation of the heterogeneous game.
func TestWinningProbabilityPiMonteCarlo(t *testing.T) {
	alphas := []float64{0.5, 0.3, 0.8}
	pi := []float64{0.5, 1, 0.75}
	capacity := 0.8
	exact, err := WinningProbabilityPi(alphas, pi, capacity)
	if err != nil {
		t.Fatalf("WinningProbabilityPi: %v", err)
	}
	rng := rand.New(rand.NewPCG(7, 11))
	const trials = 400_000
	wins := 0
	for trial := 0; trial < trials; trial++ {
		var load0, load1 float64
		for i := range alphas {
			x := rng.Float64() * pi[i]
			if rng.Float64() < alphas[i] {
				load0 += x
			} else {
				load1 += x
			}
		}
		if load0 <= capacity && load1 <= capacity {
			wins++
		}
	}
	mc := float64(wins) / trials
	se := math.Sqrt(exact * (1 - exact) / trials)
	if math.Abs(mc-exact) > 4*se+1e-9 {
		t.Fatalf("exact %v vs MC %v differ by more than 4σ (σ=%v)", exact, mc, se)
	}
}

// TestWinningProbabilityPiRejects covers the validation paths.
func TestWinningProbabilityPiRejects(t *testing.T) {
	cases := []struct {
		name     string
		alphas   []float64
		pi       []float64
		capacity float64
	}{
		{"short pi", []float64{0.5, 0.5}, []float64{0.5}, 1},
		{"long all-ones pi", []float64{0.5, 0.5}, []float64{1, 1, 1}, 1},
		{"short all-ones pi", []float64{0.5, 0.5, 0.5}, []float64{1, 1}, 1},
		{"zero range", []float64{0.5, 0.5}, []float64{0, 1}, 1},
		{"negative range", []float64{0.5, 0.5}, []float64{-1, 2}, 1},
		{"NaN range", []float64{0.5, 0.5}, []float64{math.NaN(), 2}, 1},
		{"bad alpha", []float64{1.5, 0.5}, []float64{0.5, 1}, 1},
		{"bad capacity", []float64{0.5, 0.5}, []float64{0.5, 2}, 0},
		{"too many players", make([]float64, MaxNHetero+1), headroomPi(MaxNHetero + 1), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := WinningProbabilityPi(tc.alphas, tc.pi, tc.capacity); err == nil {
				t.Fatalf("WinningProbabilityPi(%v, %v, %v) succeeded, want error", tc.alphas, tc.pi, tc.capacity)
			}
		})
	}
}

// headroomPi builds a heterogeneous π vector of the given length.
func headroomPi(n int) []float64 {
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 0.5
	}
	return pi
}
