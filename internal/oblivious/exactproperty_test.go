package oblivious

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"

	"repro/internal/dist"
)

// dyadicCapacity returns δ = round(n·64/3)/64 as (float64, *big.Rat),
// exactly representable in both arithmetics.
func dyadicCapacity(n int) (float64, *big.Rat) {
	k := int64(math.Round(float64(n) * 64 / 3))
	return float64(k) / 64, big.NewRat(k, 64)
}

// dyadic64 returns k/64 with k ~ U{lo, ..., hi} in both arithmetics.
func dyadic64(rng *rand.Rand, lo, hi int64) (float64, *big.Rat) {
	k := lo + rng.Int64N(hi-lo+1)
	return float64(k) / 64, big.NewRat(k, 64)
}

// piRat is the heterogeneous Theorem 4.1 game as branches of the rational
// oracle dist.WinProbabilityRat: player i enters bin 0 with probability
// α_i and bin 1 otherwise, its load uniform on [0, π_i] either way.
func piRat(alphas, pi []*big.Rat, capacity *big.Rat) (*big.Rat, error) {
	players := make([][]dist.Branch, len(alphas))
	for i, a := range alphas {
		zero := new(big.Rat)
		players[i] = []dist.Branch{
			{Bin: 0, Mass: a, Lo: zero, Hi: pi[i]},
			{Bin: 1, Mass: new(big.Rat).Sub(big.NewRat(1, 1), a), Lo: zero, Hi: pi[i]},
		}
	}
	return dist.WinProbabilityRat(players, capacity)
}

// TestWinningProbabilityPiMatchesRatOracle pins the float64 heterogeneous
// Theorem 4.1 fast path (sum-over-subsets volume table) against the exact
// rational branch oracle on random dyadic bin-0 probabilities and input
// ranges π ∈ [1/2, 2], for n ≤ 10, within the documented ExactErrorBound.
func TestWinningProbabilityPiMatchesRatOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 1))
	for n := 2; n <= 10; n++ {
		capF, capR := dyadicCapacity(n)
		for trial := 0; trial < 3; trial++ {
			alphas := make([]float64, n)
			alphasR := make([]*big.Rat, n)
			pis := make([]float64, n)
			pisR := make([]*big.Rat, n)
			piMin := math.Inf(1)
			for i := range alphas {
				alphas[i], alphasR[i] = dyadic64(rng, 0, 64)
				pis[i], pisR[i] = dyadic64(rng, 32, 128)
				piMin = math.Min(piMin, pis[i])
			}
			bound := ExactErrorBound(n, capF, piMin)
			got, err := WinningProbabilityPi(alphas, pis, capF, nil)
			if err != nil {
				t.Fatalf("n=%d float: %v", n, err)
			}
			want, err := piRat(alphasR, pisR, capR)
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
