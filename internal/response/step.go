package response

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/combin"
	"repro/internal/model"
	"repro/internal/optimize"
)

// StepRule is a randomized decision rule with a piecewise-constant
// response function: the unit interval is split into equal cells and a
// player whose input lands in cell i chooses bin 0 with probability
// Probs[i]. This is the full randomized generality of the paper's model
// (Section 3: "a function which assigns, for each input, a probability
// distribution on {0,1}"), discretized; deterministic interval-set rules
// are the 0/1-valued special case.
type StepRule struct {
	probs []float64
}

// NewStepRule validates the cell probabilities (each in [0, 1], at least
// one cell).
func NewStepRule(probs []float64) (*StepRule, error) {
	if len(probs) == 0 {
		return nil, fmt.Errorf("response: step rule needs at least one cell")
	}
	cp := make([]float64, len(probs))
	for i, p := range probs {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return nil, fmt.Errorf("response: cell %d probability %v outside [0, 1]", i, p)
		}
		cp[i] = p
	}
	return &StepRule{probs: cp}, nil
}

// Cells returns the number of cells.
func (r *StepRule) Cells() int { return len(r.probs) }

// Probs returns a copy of the cell probabilities.
func (r *StepRule) Probs() []float64 {
	out := make([]float64, len(r.probs))
	copy(out, r.probs)
	return out
}

// ProbAt returns P(bin 0 | input = x).
func (r *StepRule) ProbAt(x float64) float64 {
	if x < 0 {
		x = 0
	}
	if x >= 1 {
		x = math.Nextafter(1, 0)
	}
	i := int(x * float64(len(r.probs)))
	if i >= len(r.probs) {
		i = len(r.probs) - 1
	}
	return r.probs[i]
}

// LocalRule returns a model.LocalRule view of the step rule for the
// simulator.
func (r *StepRule) LocalRule() model.LocalRule { return stepLocalRule{r} }

type stepLocalRule struct{ r *StepRule }

// Decide implements model.LocalRule.
func (s stepLocalRule) Decide(input float64, rng *rand.Rand) (model.Bin, error) {
	p := s.r.ProbAt(input)
	switch {
	case p <= 0:
		return model.Bin1, nil
	case p >= 1:
		return model.Bin0, nil
	case rng == nil:
		return 0, fmt.Errorf("response: randomized step rule needs a random source")
	case rng.Float64() < p:
		return model.Bin0, nil
	default:
		return model.Bin1, nil
	}
}

// WinProbabilityStep evaluates the symmetric randomized rule: every player
// applies the same step response g. Conditioning on the decision vector,
// the bin-0 inputs are iid with (defective) density g(x) on [0,1] and the
// bin-1 inputs with density 1-g(x), so the convolution factorization of
// Theorem 5.1 carries over verbatim with soft densities.
func (e *Evaluator) WinProbabilityStep(r *StepRule) (float64, error) {
	if r == nil {
		return 0, fmt.Errorf("response: nil step rule")
	}
	f0 := e.resample(r.probs)
	f1 := make([]float64, len(f0))
	for i, v := range f0 {
		f1[i] = 1 - v
	}
	n0 := e.partialMasses(f0)
	n1 := e.partialMasses(f1)
	row, err := combin.PascalRow(e.n)
	if err != nil {
		return 0, err
	}
	var acc combin.Accumulator
	for k := 0; k <= e.n; k++ {
		acc.Add(row[k] * n0[e.n-k] * n1[k])
	}
	return clamp01(acc.Sum()), nil
}

// resample maps the rule's cell probabilities onto the evaluator's grid
// (cellwise-constant interpolation with exact partial-cell averaging).
func (e *Evaluator) resample(probs []float64) []float64 {
	out := make([]float64, e.grid)
	k := float64(len(probs))
	for i := range out {
		// Grid cell i covers [i, i+1)·h; average the rule over it.
		lo := float64(i) * e.h * k
		hi := (float64(i) + 1) * e.h * k
		loCell := int(lo)
		hiCell := int(hi)
		if hiCell >= len(probs) {
			hiCell = len(probs) - 1
		}
		if loCell >= len(probs) {
			loCell = len(probs) - 1
		}
		if loCell == hiCell {
			out[i] = probs[loCell]
			continue
		}
		var sum float64
		for c := loCell; c <= hiCell; c++ {
			cLo := math.Max(lo, float64(c))
			cHi := math.Min(hi, float64(c+1))
			if cHi > cLo {
				sum += probs[c] * (cHi - cLo)
			}
		}
		out[i] = sum / (hi - lo)
	}
	return out
}

// OptimizeStep searches symmetric randomized step rules with the given
// number of cells by Nelder-Mead over the cell probabilities, seeded from
// the best single threshold and from a deterministic band. Because the
// winning probability is multilinear in each individual player's response,
// randomization cannot beat the best deterministic rule globally — but
// this search operates within SYMMETRIC strategies, where interior
// randomization could in principle help; the measured answer is recorded
// in EXPERIMENTS.md.
func (e *Evaluator) OptimizeStep(cells int) (*StepRule, float64, error) {
	if cells < 1 || cells > 64 {
		return nil, 0, fmt.Errorf("response: cell count %d outside [1, 64]", cells)
	}
	obj := func(v []float64) float64 {
		probs := make([]float64, cells)
		for i, p := range v {
			probs[i] = clamp01(p)
		}
		r, err := NewStepRule(probs)
		if err != nil {
			return math.Inf(-1)
		}
		p, err := e.WinProbabilityStep(r)
		if err != nil {
			return math.Inf(-1)
		}
		return p
	}
	// Seed 1: the best single threshold as a step function.
	base, err := e.OptimizeThreshold()
	if err != nil {
		return nil, 0, err
	}
	baseBeta := 0.0
	if ivs := base.Set.Intervals(); len(ivs) > 0 {
		baseBeta = ivs[0].Hi
	}
	thresholdStart := make([]float64, cells)
	for i := range thresholdStart {
		mid := (float64(i) + 0.5) / float64(cells)
		if mid <= baseBeta {
			thresholdStart[i] = 1
		}
	}
	// Seed 2: a middle band.
	bandStart := make([]float64, cells)
	for i := range bandStart {
		mid := (float64(i) + 0.5) / float64(cells)
		if mid > 0.3 && mid < 0.75 {
			bandStart[i] = 1
		}
	}
	// Seed 3: the fair coin.
	coinStart := make([]float64, cells)
	for i := range coinStart {
		coinStart[i] = 0.5
	}
	lo := make([]float64, cells)
	hi := make([]float64, cells)
	for i := range hi {
		hi[i] = 1
	}
	bestVal := math.Inf(-1)
	var bestProbs []float64
	for _, start := range [][]float64{thresholdStart, bandStart, coinStart} {
		res, err := optimize.NelderMeadMax(nil, obj, start, lo, hi, 0.25, 4000, 1e-10)
		if err != nil {
			return nil, 0, err
		}
		if res.Value > bestVal {
			bestVal = res.Value
			bestProbs = res.X
		}
	}
	for i, p := range bestProbs {
		bestProbs[i] = clamp01(p)
	}
	rule, err := NewStepRule(bestProbs)
	if err != nil {
		return nil, 0, err
	}
	return rule, bestVal, nil
}
