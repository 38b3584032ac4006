package py91

import (
	"fmt"

	"repro/internal/optimize"
)

// OptimizeWeighted tunes a weighted-average protocol's four parameters by
// Nelder-Mead over the exact winning probability and returns the best
// protocol found together with its value. The first search starts at the
// no-communication optimum (θ = β* for everyone, W = 0), which the family
// contains, so the result is never below it. Nelder-Mead is local and
// that start is itself a local maximum of the one-way family, so the
// search also restarts from W = 0.3 and from the 16 points of the
// lattice {1/3, 2/3}⁴, keeping the best result (the earliest on ties).
func OptimizeWeighted(pattern Pattern) (*WeightedAverageProtocol, float64, error) {
	if pattern != OneWay && pattern != Broadcast {
		return nil, 0, fmt.Errorf("py91: can only optimize OneWay or Broadcast, got %v", pattern)
	}
	objective := func(v []float64) float64 {
		p, err := NewWeightedAverageProtocol(pattern, v[0], v[1], v[2], v[3])
		if err != nil {
			return -1
		}
		val, err := p.ExactWinProbability()
		if err != nil {
			return -1
		}
		return val
	}
	b := ConjecturedOptimalThreshold
	starts := [][]float64{{b, b, b, 0}, {b, b, b, 0.3}}
	for mask := 0; mask < 16; mask++ {
		s := make([]float64, 4)
		for j := range s {
			s[j] = float64(1+mask>>j&1) / 3
		}
		starts = append(starts, s)
	}
	var best optimize.VectorResult
	for i, start := range starts {
		res, err := optimize.NelderMeadMax(nil, objective, start,
			[]float64{0, 0, 0, 0},
			[]float64{1, 1.5, 1.5, 1},
			0.15, 400, 1e-12)
		if err != nil {
			return nil, 0, err
		}
		if i == 0 || res.Value > best.Value {
			best = res
		}
	}
	p, err := NewWeightedAverageProtocol(pattern, best.X[0], best.X[1], best.X[2], best.X[3])
	if err != nil {
		return nil, 0, err
	}
	return p, best.Value, nil
}
