// Package comm realizes the paper's Section 6 program — "general
// communication patterns ... can all be treated in our combinatorial
// framework" — for the simplest non-trivial pattern at general n: a
// single broadcast bit.
//
// Player 0 announces one bit, whether its input exceeds a cut point c.
// Conditioned on the bit, every input region in play is still a finite
// union of intervals — the sender's input is uniform on [0,c] or [c,1],
// and each listener applies a bit-dependent threshold — so the
// no-communication machinery of package response evaluates the protocol
// EXACTLY: the winning probability is the sum over the two bit values of
// unconditional pair-region probabilities (response.WinProbabilityVectorPairs).
//
// The package also tunes the protocol's four parameters numerically,
// quantifying how much one bit of communication is worth on top of the
// paper's no-communication optimum.
package comm

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/response"
)

// OneBitBroadcast is the protocol: player 0 broadcasts bit = 1{x₀ > Cut};
// player 0 itself enters bin 0 when x₀ ≤ SenderTheta; listener i ≥ 1
// enters bin 0 when x_i ≤ BetaLow (bit = 0) or x_i ≤ BetaHigh (bit = 1).
type OneBitBroadcast struct {
	// N is the number of players (≥ 2; player 0 is the sender).
	N int
	// Cut is the broadcast cut point in [0, 1].
	Cut float64
	// SenderTheta is the sender's own bin-0 threshold.
	SenderTheta float64
	// BetaLow and BetaHigh are the listeners' bit-conditional thresholds.
	BetaLow, BetaHigh float64
}

// Validate checks all parameters.
func (p OneBitBroadcast) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("comm: need at least 2 players, got %d", p.N)
	}
	if p.N > 10 {
		return problem.PlayerCapError("comm: exact evaluation limited to 10 players, got %d", p.N)
	}
	for name, v := range map[string]float64{
		"cut": p.Cut, "senderTheta": p.SenderTheta, "betaLow": p.BetaLow, "betaHigh": p.BetaHigh,
	} {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("comm: %s = %v outside [0, 1]", name, v)
		}
	}
	return nil
}

// WinProbability evaluates the protocol exactly (up to float64 rounding in
// the Lemma 2.4 kernels): the two bit values partition the probability
// space, and each conditional world is a vector of interval-pair regions.
func (p OneBitBroadcast) WinProbability(capacity float64) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return 0, fmt.Errorf("comm: capacity %v must be strictly positive and finite", capacity)
	}
	senderSet, err := response.Threshold(p.SenderTheta)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, world := range []struct {
		lo, hi float64 // sender's input range in this world
		beta   float64 // listeners' threshold in this world
	}{
		{0, p.Cut, p.BetaLow},
		{p.Cut, 1, p.BetaHigh},
	} {
		if world.lo >= world.hi {
			continue // empty world (cut at 0 or 1)
		}
		bin0 := make([]response.IntervalSet, p.N)
		bin1 := make([]response.IntervalSet, p.N)
		s0, err := senderSet.Intersect(world.lo, world.hi)
		if err != nil {
			return 0, err
		}
		s1, err := senderSet.Complement().Intersect(world.lo, world.hi)
		if err != nil {
			return 0, err
		}
		bin0[0], bin1[0] = s0, s1
		lset, err := response.Threshold(world.beta)
		if err != nil {
			return 0, err
		}
		for i := 1; i < p.N; i++ {
			bin0[i] = lset
			bin1[i] = lset.Complement()
		}
		v, err := response.WinProbabilityVectorPairs(bin0, bin1, capacity)
		if err != nil {
			return 0, err
		}
		total += v
	}
	if total > 1 {
		total = 1
	}
	return total, nil
}

// Rules materializes the protocol for the Monte-Carlo simulator: because
// model.LocalRule sees only the player's own input, the bit is threaded by
// constructing one rule set per possible bit value; the caller (or
// Simulate below) selects the set matching the sampled x₀.
func (p OneBitBroadcast) Rules(bit int) ([]model.LocalRule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if bit != 0 && bit != 1 {
		return nil, fmt.Errorf("comm: bit %d must be 0 or 1", bit)
	}
	beta := p.BetaLow
	if bit == 1 {
		beta = p.BetaHigh
	}
	rules := make([]model.LocalRule, p.N)
	sender, err := model.NewThresholdRule(p.SenderTheta)
	if err != nil {
		return nil, err
	}
	rules[0] = sender
	listener, err := model.NewThresholdRule(beta)
	if err != nil {
		return nil, err
	}
	for i := 1; i < p.N; i++ {
		rules[i] = listener
	}
	return rules, nil
}

// OneBitToOne is the one-way variant: the bit 1{x₀ > Cut} is seen ONLY by
// player 1; players 2..n-1 use the unconditional threshold Beta.
type OneBitToOne struct {
	// N is the number of players (≥ 3 so that some player is excluded
	// from the communication).
	N int
	// Cut is the sender's announcement cut point.
	Cut float64
	// SenderTheta is the sender's own bin-0 threshold.
	SenderTheta float64
	// BetaLow and BetaHigh are player 1's bit-conditional thresholds.
	BetaLow, BetaHigh float64
	// Beta is the unconditional threshold of the remaining players.
	Beta float64
}

// Validate checks all parameters.
func (p OneBitToOne) Validate() error {
	if p.N < 3 {
		return fmt.Errorf("comm: one-way protocol needs at least 3 players, got %d", p.N)
	}
	if p.N > 10 {
		return problem.PlayerCapError("comm: exact evaluation limited to 10 players, got %d", p.N)
	}
	for name, v := range map[string]float64{
		"cut": p.Cut, "senderTheta": p.SenderTheta,
		"betaLow": p.BetaLow, "betaHigh": p.BetaHigh, "beta": p.Beta,
	} {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("comm: %s = %v outside [0, 1]", name, v)
		}
	}
	return nil
}

// WinProbability evaluates the one-way protocol exactly by conditioning on
// the bit, exactly as OneBitBroadcast does.
func (p OneBitToOne) WinProbability(capacity float64) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return 0, fmt.Errorf("comm: capacity %v must be strictly positive and finite", capacity)
	}
	senderSet, err := response.Threshold(p.SenderTheta)
	if err != nil {
		return 0, err
	}
	othersSet, err := response.Threshold(p.Beta)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, world := range []struct {
		lo, hi float64
		beta   float64 // player 1's threshold in this world
	}{
		{0, p.Cut, p.BetaLow},
		{p.Cut, 1, p.BetaHigh},
	} {
		if world.lo >= world.hi {
			continue
		}
		bin0 := make([]response.IntervalSet, p.N)
		bin1 := make([]response.IntervalSet, p.N)
		s0, err := senderSet.Intersect(world.lo, world.hi)
		if err != nil {
			return 0, err
		}
		s1, err := senderSet.Complement().Intersect(world.lo, world.hi)
		if err != nil {
			return 0, err
		}
		bin0[0], bin1[0] = s0, s1
		listener, err := response.Threshold(world.beta)
		if err != nil {
			return 0, err
		}
		bin0[1], bin1[1] = listener, listener.Complement()
		for i := 2; i < p.N; i++ {
			bin0[i] = othersSet
			bin1[i] = othersSet.Complement()
		}
		v, err := response.WinProbabilityVectorPairs(bin0, bin1, capacity)
		if err != nil {
			return 0, err
		}
		total += v
	}
	if total > 1 {
		total = 1
	}
	return total, nil
}

// OptimizeOneWay tunes the five OneBitToOne parameters by Nelder-Mead,
// seeded from the no-communication optimum.
func OptimizeOneWay(n int, capacity, betaStar float64) (OneBitToOne, float64, error) {
	if n < 3 || n > 10 {
		return OneBitToOne{}, 0, fmt.Errorf("comm: n = %d outside [3, 10]", n)
	}
	if !(capacity > 0) {
		return OneBitToOne{}, 0, fmt.Errorf("comm: capacity %v must be strictly positive", capacity)
	}
	if math.IsNaN(betaStar) || betaStar < 0 || betaStar > 1 {
		return OneBitToOne{}, 0, fmt.Errorf("comm: betaStar %v outside [0, 1]", betaStar)
	}
	obj := func(v []float64) float64 {
		p := OneBitToOne{
			N:           n,
			Cut:         clamp01(v[0]),
			SenderTheta: clamp01(v[1]),
			BetaLow:     clamp01(v[2]),
			BetaHigh:    clamp01(v[3]),
			Beta:        clamp01(v[4]),
		}
		val, err := p.WinProbability(capacity)
		if err != nil {
			return math.Inf(-1)
		}
		return val
	}
	lo := []float64{0, 0, 0, 0, 0}
	hi := []float64{1, 1, 1, 1, 1}
	starts := [][]float64{
		{0, betaStar, betaStar, betaStar, betaStar}, // degenerate: no communication
		{0.5, betaStar, betaStar * 0.8, math.Min(1, betaStar*1.2), betaStar},
	}
	bestVal := math.Inf(-1)
	var best OneBitToOne
	for _, start := range starts {
		res, err := optimize.NelderMeadMax(nil, obj, start, lo, hi, 0.12, 3000, 1e-10)
		if err != nil {
			return OneBitToOne{}, 0, err
		}
		if res.Value > bestVal {
			bestVal = res.Value
			best = OneBitToOne{
				N:           n,
				Cut:         clamp01(res.X[0]),
				SenderTheta: clamp01(res.X[1]),
				BetaLow:     clamp01(res.X[2]),
				BetaHigh:    clamp01(res.X[3]),
				Beta:        clamp01(res.X[4]),
			}
		}
	}
	return best, bestVal, nil
}

// OptimizeResult is the tuned protocol and its winning probability.
type OptimizeResult struct {
	Protocol       OneBitBroadcast
	WinProbability float64
}

// Optimize tunes (Cut, SenderTheta, BetaLow, BetaHigh) by Nelder-Mead over
// the exact evaluator, seeded from the no-communication optimum (betaStar)
// and from a median-cut heuristic. The result can only improve on the
// no-communication optimum, which appears as the degenerate Cut = 0 with
// BetaHigh = SenderTheta = betaStar.
func Optimize(n int, capacity, betaStar float64) (OptimizeResult, error) {
	if n < 2 || n > 10 {
		return OptimizeResult{}, fmt.Errorf("comm: n = %d outside [2, 10]", n)
	}
	if !(capacity > 0) {
		return OptimizeResult{}, fmt.Errorf("comm: capacity %v must be strictly positive", capacity)
	}
	if math.IsNaN(betaStar) || betaStar < 0 || betaStar > 1 {
		return OptimizeResult{}, fmt.Errorf("comm: betaStar %v outside [0, 1]", betaStar)
	}
	obj := func(v []float64) float64 {
		p := OneBitBroadcast{
			N:           n,
			Cut:         clamp01(v[0]),
			SenderTheta: clamp01(v[1]),
			BetaLow:     clamp01(v[2]),
			BetaHigh:    clamp01(v[3]),
		}
		val, err := p.WinProbability(capacity)
		if err != nil {
			return math.Inf(-1)
		}
		return val
	}
	lo := []float64{0, 0, 0, 0}
	hi := []float64{1, 1, 1, 1}
	starts := [][]float64{
		{0.0, betaStar, betaStar, betaStar}, // degenerate: no communication
		{0.5, betaStar, betaStar * 0.8, math.Min(1, betaStar*1.2)},
		{betaStar, betaStar, 0.4, 0.8},
	}
	best := OptimizeResult{WinProbability: math.Inf(-1)}
	for _, start := range starts {
		res, err := optimize.NelderMeadMax(nil, obj, start, lo, hi, 0.12, 3000, 1e-10)
		if err != nil {
			return OptimizeResult{}, err
		}
		if res.Value > best.WinProbability {
			best = OptimizeResult{
				Protocol: OneBitBroadcast{
					N:           n,
					Cut:         clamp01(res.X[0]),
					SenderTheta: clamp01(res.X[1]),
					BetaLow:     clamp01(res.X[2]),
					BetaHigh:    clamp01(res.X[3]),
				},
				WinProbability: res.Value,
			}
		}
	}
	return best, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
