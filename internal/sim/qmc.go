package sim

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/qrand"
)

// DefaultReplicates is the number of independently scrambled QMC
// randomizations WinProbabilityQMC averages when Config.Replicates is
// zero. 16 replicates keep the Student-t width penalty small (t ≈ 2.13)
// while leaving each replicate enough points for the low-discrepancy
// structure to bite.
const DefaultReplicates = 16

// MaxQMCDims is the largest sample-space dimension (players + coins) the
// QMC path supports, bounded by the Sobol direction-number table.
const MaxQMCDims = qrand.MaxDim

// scrambleSeed derives replicate r's digital-shift seed from the run
// seed, SplitMix-mixed so nearby (seed, replicate) labels give unrelated
// scramblings.
func scrambleSeed(seed uint64, r int) uint64 {
	s := seed + 0x9e3779b97f4a7c15*uint64(r+1)
	s ^= s >> 30
	s *= 0xbf58476d1ce4e5b9
	s ^= s >> 27
	return s
}

// tQuantile975 returns the two-sided 95% Student-t quantile for df
// degrees of freedom (exact table through df=30, then the usual
// large-sample breakpoints).
func tQuantile975(df int) float64 {
	table := [...]float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	switch {
	case df < 1:
		return math.Inf(1)
	case df <= len(table):
		return table[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}

// WinProbabilityQMC estimates the winning probability with randomized
// quasi-Monte-Carlo: cfg.Replicates independently scrambled Sobol
// sequences each contribute Trials/Replicates low-discrepancy trials,
// and the estimate is the mean of the replicate means. Because each
// scrambled point is uniform on [0,1)^dims, the estimator is unbiased,
// and the spread of the replicate means gives an honest standard error —
// StdErr and the Student-t CI in the Result replace the Bernoulli
// machinery, which would be wildly conservative for correlated QMC
// points. Replicates are deterministic functions of (Seed, replicate
// index), so results do not depend on Workers.
//
// The system's rules must all implement model.BatchRule (the QMC path is
// kernel-only) and the sample space must fit in MaxQMCDims dimensions.
func WinProbabilityQMC(sys *model.System, cfg Config) (Result, error) {
	if sys == nil {
		return Result{}, fmt.Errorf("sim: nil system")
	}
	k, ok := model.NewBatchKernel(sys)
	if !ok {
		return Result{}, fmt.Errorf("sim: qmc needs batchable rules (model.BatchRule); system %q has none", "win_probability")
	}
	return winProbabilityQMC(k, cfg)
}

func winProbabilityQMC(k *model.BatchKernel, cfg Config) (Result, error) {
	dims := k.Dims()
	if dims > MaxQMCDims {
		return Result{}, fmt.Errorf("sim: qmc supports at most %d dimensions (players + coins), got %d", MaxQMCDims, dims)
	}
	cfg, err := cfg.validate()
	if err != nil {
		return Result{}, err
	}
	reps := cfg.Replicates
	if reps == 0 {
		reps = DefaultReplicates
	}
	if reps < 2 {
		return Result{}, fmt.Errorf("sim: qmc needs at least 2 replicates for a standard error, got %d", reps)
	}
	m := cfg.Trials / reps
	if m < 1 {
		return Result{}, fmt.Errorf("sim: %d trials cannot cover %d qmc replicates", cfg.Trials, reps)
	}

	root := cfg.Obs.StartSpan("sim.win_probability_qmc")
	defer root.End()

	// One scrambled sequence per replicate; replicates are striped over
	// the workers. Each entry of wins is owned by exactly one worker.
	wins := make([]int64, reps)
	errs := make([]error, cfg.Workers)
	parallel(cfg.Workers, func(w int) {
		sc := model.GetBatchScratch()
		defer sc.Release()
		for r := w; r < reps; r += cfg.Workers {
			seq, err := qrand.New(dims, scrambleSeed(cfg.Seed, r))
			if err != nil {
				errs[w] = err
				return
			}
			var won int64
			for done := 0; done < m; {
				b := min(batchSize, m-done)
				won += int64(k.PlayQMC(sc, seq, uint64(done), b))
				done += b
			}
			wins[r] = won
		}
	})
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}

	// Mean of replicate means and its sample standard error. With equal
	// per-replicate budgets the mean of means equals the pooled estimate.
	var total int64
	p := 0.0
	for _, won := range wins {
		total += won
		p += float64(won) / float64(m)
	}
	p /= float64(reps)
	var ss float64
	for _, won := range wins {
		d := float64(won)/float64(m) - p
		ss += d * d
	}
	stderr := math.Sqrt(ss / float64(reps-1) / float64(reps))
	t := tQuantile975(reps - 1)
	lo := math.Max(0, p-t*stderr)
	hi := math.Min(1, p+t*stderr)

	trials := int64(m) * int64(reps)
	cfg.Obs.Counter("sim.trials").Add(trials)
	cfg.Obs.Counter("sim.wins").Add(total)
	cfg.Obs.Counter("sim.qmc_replicates").Add(int64(reps))

	return Result{
		P:          p,
		StdErr:     stderr,
		CILo:       lo,
		CIHi:       hi,
		Wins:       total,
		Trials:     trials,
		Replicates: reps,
	}, nil
}
