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
	return checkUnit([]param{
		{"cut", p.Cut}, {"senderTheta", p.SenderTheta}, {"betaLow", p.BetaLow}, {"betaHigh", p.BetaHigh},
	})
}

// param is one named protocol parameter.
type param struct {
	name string
	v    float64
}

// checkUnit refuses the first parameter, in the given order, that lies
// outside [0, 1].
func checkUnit(ps []param) error {
	for _, p := range ps {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("comm: %s = %v outside [0, 1]", p.name, p.v)
		}
	}
	return nil
}

// WinProbability evaluates the protocol exactly (up to float64 rounding in
// the Lemma 2.4 kernels): the two bit values partition the probability
// space, and each conditional world is a vector of interval-pair regions.
// It evaluates at most 10 players; larger systems are refused with an
// error wrapping problem.ErrPlayerCap.
func (p OneBitBroadcast) WinProbability(capacity float64) (float64, error) {
	return p.winProbability(capacity, new(scratch))
}

// winProbability is WinProbability with its working memory in sc.
func (p OneBitBroadcast) winProbability(capacity float64, sc *scratch) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	// A broadcast is a one-way protocol that every listener hears, so no
	// player uses the unconditional threshold Beta.
	oneWay := OneBitToOne{N: p.N, Cut: p.Cut, SenderTheta: p.SenderTheta, BetaLow: p.BetaLow, BetaHigh: p.BetaHigh}
	return oneWay.conditioned(p.N-1, capacity, sc)
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
	return checkUnit([]param{
		{"cut", p.Cut}, {"senderTheta", p.SenderTheta},
		{"betaLow", p.BetaLow}, {"betaHigh", p.BetaHigh}, {"beta", p.Beta},
	})
}

// WinProbability evaluates the one-way protocol exactly by conditioning on
// the bit, exactly as OneBitBroadcast does, with the same 10-player cap.
func (p OneBitToOne) WinProbability(capacity float64) (float64, error) {
	return p.winProbability(capacity, new(scratch))
}

// winProbability is WinProbability with its working memory in sc.
func (p OneBitToOne) winProbability(capacity float64, sc *scratch) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	return p.conditioned(1, capacity, sc)
}

// scratch is the reusable working memory of conditioned: the response
// scratch its sets and masses live in, and the two region vectors of a
// world.
type scratch struct {
	response.Scratch
	bin0, bin1 []response.IntervalSet
}

// conditioned evaluates the protocol exactly when listeners 1..heard hear
// the bit 1{x₀ > Cut} and the remaining players use Beta. Each bit value
// is a world in which the sender's input ranges over its side of the cut
// and the listeners use that world's threshold (BetaLow for bit 0,
// BetaHigh for bit 1). Each world is a vector of interval-pair regions;
// the worlds' unconditional probabilities sum to the winning probability.
// Every set and mass is built in sc, which is reset first, so a search
// that passes the same sc to every probe allocates nothing per probe.
func (p OneBitToOne) conditioned(heard int, capacity float64, sc *scratch) (float64, error) {
	if p.N > 10 {
		return 0, problem.PlayerCapError("comm: exact evaluation limited to 10 players, got %d", p.N)
	}
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return 0, fmt.Errorf("comm: capacity %v must be strictly positive and finite", capacity)
	}
	sc.Reset()
	senderSet, err := sc.Threshold(p.SenderTheta)
	if err != nil {
		return 0, err
	}
	senderComp := sc.Complement(senderSet)
	others, err := sc.Threshold(p.Beta)
	if err != nil {
		return 0, err
	}
	othersComp := sc.Complement(others)
	if cap(sc.bin0) < p.N {
		sc.bin0 = make([]response.IntervalSet, p.N)
		sc.bin1 = make([]response.IntervalSet, p.N)
	}
	bin0, bin1 := sc.bin0[:p.N], sc.bin1[:p.N]
	total := 0.0
	for _, world := range [2]struct {
		lo, hi float64 // sender's input range in this world
		beta   float64 // listeners' threshold in this world
	}{
		{0, p.Cut, p.BetaLow},
		{p.Cut, 1, p.BetaHigh},
	} {
		if world.lo >= world.hi {
			continue // empty world (cut at 0 or 1)
		}
		s0, err := sc.Intersect(senderSet, world.lo, world.hi)
		if err != nil {
			return 0, err
		}
		s1, err := sc.Intersect(senderComp, world.lo, world.hi)
		if err != nil {
			return 0, err
		}
		bin0[0], bin1[0] = s0, s1
		listener, err := sc.Threshold(world.beta)
		if err != nil {
			return 0, err
		}
		listenerComp := sc.Complement(listener)
		for i := 1; i < p.N; i++ {
			if i <= heard {
				bin0[i], bin1[i] = listener, listenerComp
			} else {
				bin0[i], bin1[i] = others, othersComp
			}
		}
		v, err := sc.WinProbabilityVectorPairs(bin0, bin1, capacity)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return math.Min(total, 1), nil
}

// OptimizeOneWay tunes the five OneBitToOne parameters by Nelder-Mead
// from three starts: the no-communication optimum, a median cut around
// it, and the mirror protocol (cut and sender threshold 1/2, player 1
// taking the bin the sender did not, the rest bin 0), worth exactly 5/8
// at n = 3, δ = 1; from the other starts alone it stops at 0.6249986.
func OptimizeOneWay(n int, capacity, betaStar float64) (OneBitToOne, float64, error) {
	if n < 3 || n > 10 {
		return OneBitToOne{}, 0, fmt.Errorf("comm: n = %d outside [3, 10]", n)
	}
	protocol := func(v []float64) OneBitToOne {
		return OneBitToOne{N: n, Cut: v[0], SenderTheta: v[1], BetaLow: v[2], BetaHigh: v[3], Beta: v[4]}
	}
	sc := new(scratch)
	x, val, err := tune(capacity, betaStar, [][]float64{
		{0, betaStar, betaStar, betaStar, betaStar}, // degenerate: no communication
		{0.5, betaStar, betaStar * 0.8, math.Min(1, betaStar*1.2), betaStar},
		{0.5, 0.5, 0, 1, 1}, // mirror
	}, func(v []float64) (float64, error) { return protocol(v).winProbability(capacity, sc) })
	if err != nil {
		return OneBitToOne{}, 0, err
	}
	return protocol(x), val, nil
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
	protocol := func(v []float64) OneBitBroadcast {
		return OneBitBroadcast{N: n, Cut: v[0], SenderTheta: v[1], BetaLow: v[2], BetaHigh: v[3]}
	}
	sc := new(scratch)
	x, val, err := tune(capacity, betaStar, [][]float64{
		{0.0, betaStar, betaStar, betaStar}, // degenerate: no communication
		{0.5, betaStar, betaStar * 0.8, math.Min(1, betaStar*1.2)},
		{betaStar, betaStar, 0.4, 0.8},
	}, func(v []float64) (float64, error) { return protocol(v).winProbability(capacity, sc) })
	if err != nil {
		return OptimizeResult{}, err
	}
	return OptimizeResult{Protocol: protocol(x), WinProbability: val}, nil
}

// tune maximizes win over the unit cube by Nelder-Mead from each start,
// evaluating win at the clamped coordinates of every probe, and returns
// the best clamped point with its value; an earlier start wins ties.
// A capacity WinProbability would refuse at every probe is refused up
// front, so a search never ends without a point.
func tune(capacity, betaStar float64, starts [][]float64, win func(v []float64) (float64, error)) ([]float64, float64, error) {
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return nil, 0, fmt.Errorf("comm: capacity %v must be strictly positive and finite", capacity)
	}
	if math.IsNaN(betaStar) || betaStar < 0 || betaStar > 1 {
		return nil, 0, fmt.Errorf("comm: betaStar %v outside [0, 1]", betaStar)
	}
	probe := make([]float64, len(starts[0]))
	obj := func(v []float64) float64 {
		val, err := win(clamp01(probe, v))
		if err != nil {
			return math.Inf(-1)
		}
		return val
	}
	lo := make([]float64, len(starts[0]))
	hi := make([]float64, len(starts[0]))
	for i := range hi {
		hi[i] = 1
	}
	var best []float64
	bestVal := math.Inf(-1)
	for _, start := range starts {
		res, err := optimize.NelderMeadMax(nil, obj, start, lo, hi, 0.12, 3000, 1e-10)
		if err != nil {
			return nil, 0, err
		}
		if res.Value > bestVal {
			best, bestVal = res.X, res.Value
		}
	}
	return clamp01(make([]float64, len(best)), best), bestVal, nil
}

// clamp01 writes v with every coordinate clamped into [0, 1] to dst and
// returns dst.
func clamp01(dst, v []float64) []float64 {
	for i, x := range v {
		switch {
		case x < 0:
			x = 0
		case x > 1:
			x = 1
		}
		dst[i] = x
	}
	return dst
}
