package py91

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SimConfig controls the Monte-Carlo evaluation of PY91 protocols.
type SimConfig struct {
	// Trials is the number of input vectors to draw. Must be positive.
	Trials int
	// Workers is the parallel worker count; 0 selects GOMAXPROCS.
	Workers int
	// Seed seeds the per-worker streams.
	Seed uint64
}

// Evaluation is the simulated performance of a protocol.
type Evaluation struct {
	// Protocol names the evaluated protocol.
	Protocol string
	// Pattern is its communication pattern.
	Pattern Pattern
	// P is the estimated winning probability with StdErr its standard
	// error.
	P, StdErr float64
	// Trials is the number of rounds played.
	Trials int64
}

// evalBatchSize is how many trials the batched evaluation path samples
// and decides per BatchProtocol call.
const evalBatchSize = 256

// Evaluate estimates a protocol's winning probability by simulation.
// Protocols that implement BatchProtocol (the threshold and
// weighted-average families) are decided in batches of pre-sampled
// trials, skipping the per-trial interface dispatch; the draw order is
// the same either way, so the estimate for a fixed (Seed, Workers) pair
// does not depend on which path runs.
func Evaluate(p Protocol, cfg SimConfig) (Evaluation, error) {
	if p == nil {
		return Evaluation{}, fmt.Errorf("py91: nil protocol")
	}
	if cfg.Trials <= 0 {
		return Evaluation{}, fmt.Errorf("py91: trial count %d must be positive", cfg.Trials)
	}
	workers, err := sim.WorkerCount(cfg.Workers, cfg.Trials)
	if err != nil {
		return Evaluation{}, fmt.Errorf("py91: %w", err)
	}
	bp, batched := p.(BatchProtocol)
	counters := make([]stats.Proportion, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	base := cfg.Trials / workers
	extra := cfg.Trials % workers
	for w := 0; w < workers; w++ {
		quota := base
		if w < extra {
			quota++
		}
		wg.Add(1)
		go func(w, quota int) {
			defer wg.Done()
			s := cfg.Seed + 0x9e3779b97f4a7c15*uint64(w+1)
			pcg := rand.NewPCG(s, s^0xda3e39cb94b95bdb)
			if batched {
				evalBatched(bp, pcg, quota, &counters[w])
				return
			}
			rng := rand.New(pcg)
			for i := 0; i < quota; i++ {
				var x [Players]float64
				for j := range x {
					x[j] = rng.Float64()
				}
				bins, err := p.Decide(x)
				if err != nil {
					errs[w] = err
					return
				}
				var load0, load1 float64
				for j := range x {
					if bins[j] == 0 {
						load0 += x[j]
					} else {
						load1 += x[j]
					}
				}
				counters[w].Add(load0 <= Capacity && load1 <= Capacity)
			}
		}(w, quota)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Evaluation{}, fmt.Errorf("py91: protocol decision failed: %w", err)
		}
	}
	var total stats.Proportion
	for _, c := range counters {
		total.Merge(c)
	}
	return Evaluation{
		Protocol: p.Name(),
		Pattern:  p.Pattern(),
		P:        total.Estimate(),
		StdErr:   total.StdErr(),
		Trials:   total.Trials(),
	}, nil
}

// evalBatched is one worker's batched evaluation loop: sample a batch of
// input vectors (in the per-trial draw order), decide them with a single
// DecideBatch call, and count wins. Draws come straight from the worker's
// *rand.PCG through model.SrcFloat64, bit-identical to rand.Rand.Float64
// on the same source without the Source interface dispatch. The buffers
// are allocated once per worker, so the steady-state loop allocates
// nothing per trial.
func evalBatched(bp BatchProtocol, pcg *rand.PCG, quota int, counter *stats.Proportion) {
	xs := make([]float64, evalBatchSize*Players)
	outs := make([][Players]model.Bin, evalBatchSize)
	var wins, trials int64
	for done := 0; done < quota; {
		b := evalBatchSize
		if quota-done < b {
			b = quota - done
		}
		batch := xs[:b*Players]
		for j := range batch {
			batch[j] = model.SrcFloat64(pcg.Uint64())
		}
		bp.DecideBatch(batch, outs[:b])
		for t := 0; t < b; t++ {
			var load0, load1 float64
			for j := 0; j < Players; j++ {
				x := batch[t*Players+j]
				d := float64(outs[t][j])
				load0 += x * (1 - d)
				load1 += x * d
			}
			if load0 <= Capacity && load1 <= Capacity {
				wins++
			}
		}
		trials += int64(b)
		done += b
	}
	// Cannot fail: wins ≤ trials and both are non-negative.
	_ = counter.AddN(wins, trials)
}

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
