package nonoblivious

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/dist"
)

// WinningProbabilityPiRat evaluates the heterogeneous Theorem 5.1
// generalization exactly for rational thresholds, input ranges and
// capacity — the certifying oracle the float64 WinningProbability and
// WinningProbabilityPi paths are property-tested against. A nil or empty
// pi is the homogeneous game (every π_i = 1). With x_i ~ U[0, π_i] and
// c_i = min(a_i, π_i), player i enters bin 0 with probability c_i/π_i and
// load U[0, c_i], and bin 1 with probability (π_i − c_i)/π_i and load
// U[c_i, π_i]; dist.WinProbabilityRat sums those branches (cap MaxNExact).
func WinningProbabilityPiRat(thresholds, pi []*big.Rat, capacity *big.Rat) (*big.Rat, error) {
	n := len(thresholds)
	if n < 2 {
		return nil, fmt.Errorf("nonoblivious: need at least 2 players, got %d", n)
	}
	if len(pi) > 0 && len(pi) != n {
		return nil, fmt.Errorf("nonoblivious: %d input ranges for %d players", len(pi), n)
	}
	one := big.NewRat(1, 1)
	players := make([][]dist.Branch, n)
	for i, a := range thresholds {
		if a == nil || a.Sign() < 0 || a.Cmp(one) > 0 {
			return nil, fmt.Errorf("nonoblivious: threshold[%d] outside [0, 1]", i)
		}
		w := one
		if len(pi) > 0 {
			w = pi[i]
		}
		if w == nil || w.Sign() <= 0 {
			return nil, fmt.Errorf("nonoblivious: input range π[%d] must be strictly positive", i)
		}
		c := a
		if c.Cmp(w) > 0 {
			c = w
		}
		players[i] = []dist.Branch{
			{Bin: 0, Mass: new(big.Rat).Quo(c, w), Lo: new(big.Rat), Hi: c},
			{Bin: 1, Mass: new(big.Rat).Quo(new(big.Rat).Sub(w, c), w), Lo: c, Hi: w},
		}
	}
	return dist.WinProbabilityRat(players, capacity)
}

// CertifyThresholds re-evaluates a float64 threshold vector with the
// big.Rat oracle WinningProbabilityPiRat at exactly the float-rounded
// point (SetFloat64 is exact, so no snapping is introduced) and returns
// the oracle value alongside ExactErrorBound, the certified round-off
// bound of the float64 path. A nil or empty pi is the homogeneous game.
func CertifyThresholds(thresholds, pi []float64, capacity float64) (exact, bound float64, err error) {
	aRat := make([]*big.Rat, len(thresholds))
	for i, v := range thresholds {
		aRat[i] = new(big.Rat).SetFloat64(v)
	}
	var piRat []*big.Rat
	piMin := 1.0
	for _, v := range pi {
		piRat = append(piRat, new(big.Rat).SetFloat64(v))
		piMin = math.Min(piMin, v)
	}
	p, err := WinningProbabilityPiRat(aRat, piRat, new(big.Rat).SetFloat64(capacity))
	if err != nil {
		return 0, 0, err
	}
	exact, _ = p.Float64()
	return exact, ExactErrorBound(len(thresholds), capacity, piMin), nil
}
