package oblivious

import (
	"fmt"
	"math/big"

	"repro/internal/combin"
	"repro/internal/dist"
)

// MaxNHeteroExact bounds the player count for the exact rational
// heterogeneous evaluation (Θ(3^n) big.Rat arithmetic): the certifying
// oracle behind the float64 fast path, not a production evaluator.
const MaxNHeteroExact = 10

// WinningProbabilityPiRat evaluates the heterogeneous Theorem 4.1
// generalization exactly for rational bin-0 probabilities, input ranges
// and capacity — the certified oracle the float64 WinningProbabilityPi
// path is property-tested against. Each bin-choice vector's two
// conditional load CDFs are Lemma 2.4 evaluations in exact rational
// arithmetic (dist.CDFRat).
func WinningProbabilityPiRat(alphas, pi []*big.Rat, capacity *big.Rat) (*big.Rat, error) {
	n := len(alphas)
	if n < 2 {
		return nil, fmt.Errorf("oblivious: need at least 2 players, got %d", n)
	}
	if n > MaxNHeteroExact {
		return nil, fmt.Errorf("oblivious: exact heterogeneous evaluation limited to %d players, got %d", MaxNHeteroExact, n)
	}
	if len(pi) != n {
		return nil, fmt.Errorf("oblivious: %d input ranges for %d players", len(pi), n)
	}
	one := big.NewRat(1, 1)
	for i, a := range alphas {
		if a == nil || a.Sign() < 0 || a.Cmp(one) > 0 {
			return nil, fmt.Errorf("oblivious: probability[%d] outside [0, 1]", i)
		}
	}
	for i, w := range pi {
		if w == nil || w.Sign() <= 0 {
			return nil, fmt.Errorf("oblivious: input range π[%d] must be strictly positive", i)
		}
	}
	if capacity == nil || capacity.Sign() <= 0 {
		return nil, fmt.Errorf("oblivious: capacity must be strictly positive")
	}
	total := new(big.Rat)
	weight := new(big.Rat)
	factor := new(big.Rat)
	zeros := make([]*big.Rat, 0, n)
	ones := make([]*big.Rat, 0, n)
	err := combin.ForEachSubset(n, func(s uint64) bool {
		weight.SetInt64(1)
		zeros = zeros[:0]
		ones = ones[:0]
		for i := 0; i < n; i++ {
			if s&(1<<uint(i)) == 0 {
				weight.Mul(weight, alphas[i])
				zeros = append(zeros, pi[i])
			} else {
				factor.Sub(one, alphas[i])
				weight.Mul(weight, factor)
				ones = append(ones, pi[i])
			}
		}
		if weight.Sign() == 0 {
			return true
		}
		f0, err := dist.CDFRat(zeros, capacity)
		if err != nil || f0.Sign() == 0 {
			return true
		}
		f1, err := dist.CDFRat(ones, capacity)
		if err != nil {
			return true
		}
		weight.Mul(weight, f0)
		weight.Mul(weight, f1)
		total.Add(total, weight)
		return true
	})
	if err != nil {
		return nil, err
	}
	return total, nil
}
