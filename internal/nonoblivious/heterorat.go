package nonoblivious

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/combin"
	"repro/internal/dist"
)

// WinningProbabilityPiRat evaluates the heterogeneous Theorem 5.1
// generalization exactly for rational thresholds, input ranges and
// capacity — the certifying oracle the float64 WinningProbabilityPi path
// is property-tested against (cap MaxNExact, Θ(3^n) big.Rat arithmetic).
//
// For each bin-1 set S with complement Z, conditioning x_i ~ U[0, π_i] on
// its bin choice gives
//
//	P₀(Z) = Π_{i∈Z} (c_i/π_i) · P(Σ U[0, c_i] ≤ δ)          c_i = min(a_i, π_i)
//	P₁(S) = Π_{i∈S} (w_i/π_i) · P(Σ U[0, w_i] ≤ δ − Σ_S a)  w_i = π_i − a_i
//
// both Lemma 2.4 CDFs in exact rational arithmetic (dist.CDFRat). A player
// with a_i = 0 can never pick bin 0 (c_i = 0) and one with a_i ≥ π_i can
// never pick bin 1 (w_i ≤ 0); those vectors contribute zero.
func WinningProbabilityPiRat(thresholds, pi []*big.Rat, capacity *big.Rat) (*big.Rat, error) {
	n := len(thresholds)
	if n < 2 {
		return nil, fmt.Errorf("nonoblivious: need at least 2 players, got %d", n)
	}
	if n > MaxNExact {
		return nil, fmt.Errorf("nonoblivious: exact evaluation limited to %d players, got %d", MaxNExact, n)
	}
	if len(pi) != n {
		return nil, fmt.Errorf("nonoblivious: %d input ranges for %d players", len(pi), n)
	}
	if capacity == nil || capacity.Sign() <= 0 {
		return nil, fmt.Errorf("nonoblivious: capacity must be strictly positive")
	}
	one := big.NewRat(1, 1)
	for i, a := range thresholds {
		if a == nil || a.Sign() < 0 || a.Cmp(one) > 0 {
			return nil, fmt.Errorf("nonoblivious: threshold[%d] outside [0, 1]", i)
		}
	}
	for i, w := range pi {
		if w == nil || w.Sign() <= 0 {
			return nil, fmt.Errorf("nonoblivious: input range π[%d] must be strictly positive", i)
		}
	}
	lows := make([]*big.Rat, n)  // c_i = min(a_i, π_i)
	highs := make([]*big.Rat, n) // w_i = π_i − a_i, nil when ≤ 0
	for i := 0; i < n; i++ {
		if thresholds[i].Cmp(pi[i]) < 0 {
			lows[i] = thresholds[i]
			highs[i] = new(big.Rat).Sub(pi[i], thresholds[i])
		} else {
			lows[i] = pi[i]
		}
	}
	total := new(big.Rat)
	weight := new(big.Rat)
	shifted := new(big.Rat)
	zeroWidths := make([]*big.Rat, 0, n)
	oneWidths := make([]*big.Rat, 0, n)
	err := combin.ForEachSubset(n, func(s uint64) bool {
		weight.SetInt64(1)
		shifted.Set(capacity)
		zeroWidths = zeroWidths[:0]
		oneWidths = oneWidths[:0]
		for i := 0; i < n; i++ {
			if s&(1<<uint(i)) == 0 {
				if lows[i].Sign() == 0 {
					return true // P(x_i ≤ 0) = 0
				}
				weight.Mul(weight, lows[i])
				weight.Quo(weight, pi[i])
				zeroWidths = append(zeroWidths, lows[i])
			} else {
				if highs[i] == nil {
					return true // P(x_i > a_i) = 0
				}
				weight.Mul(weight, highs[i])
				weight.Quo(weight, pi[i])
				oneWidths = append(oneWidths, highs[i])
				shifted.Sub(shifted, thresholds[i])
			}
		}
		if shifted.Sign() <= 0 {
			return true
		}
		f0, err := dist.CDFRat(zeroWidths, capacity)
		if err != nil || f0.Sign() == 0 {
			return true
		}
		f1, err := dist.CDFRat(oneWidths, shifted)
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

// CertifyThresholds re-evaluates a float64 threshold vector with the
// big.Rat oracle WinningProbabilityPiRat at exactly the float-rounded
// point (SetFloat64 is exact, so no snapping is introduced) and returns
// the oracle value alongside ExactErrorBound, the certified round-off
// bound of the float64 path. A nil or empty pi is the homogeneous game.
func CertifyThresholds(thresholds, pi []float64, capacity float64) (exact, bound float64, err error) {
	n := len(thresholds)
	if len(pi) > 0 && len(pi) != n {
		return 0, 0, fmt.Errorf("nonoblivious: %d input ranges for %d players", len(pi), n)
	}
	aRat := make([]*big.Rat, n)
	piRat := make([]*big.Rat, n)
	piMin := 1.0
	for i, v := range thresholds {
		aRat[i] = new(big.Rat).SetFloat64(v)
		piRat[i] = big.NewRat(1, 1)
		if len(pi) > 0 {
			piRat[i] = new(big.Rat).SetFloat64(pi[i])
			piMin = math.Min(piMin, pi[i])
		}
	}
	p, err := WinningProbabilityPiRat(aRat, piRat, new(big.Rat).SetFloat64(capacity))
	if err != nil {
		return 0, 0, err
	}
	exact, _ = p.Float64()
	return exact, ExactErrorBound(n, capacity, piMin), nil
}
