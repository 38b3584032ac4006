package sim

import (
	"fmt"
	"testing"

	"repro/internal/model"
)

// precisionTarget is the standard-error budget each benchmark op must
// reach: ±1e-4, the paper-table precision.
const precisionTarget = 1e-4

// benchTrialsToPrecision runs a doubling ladder until the estimator's
// reported standard error is at or under the target; one benchmark op is
// one ladder, so ns/op is the full cost of buying ±1e-4 with the
// quasi-Monte-Carlo sampler, and the final trial count is reported as the
// "trials" metric.
func benchTrialsToPrecision(b *testing.B, sys *model.System) {
	var lastTrials int64
	for i := 0; i < b.N; i++ {
		trials := 1 << 14
		for {
			cfg := Config{Trials: trials, Workers: 1, Seed: uint64(55 + i)}
			res, err := WinProbabilityQMC(sys, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.StdErr <= precisionTarget {
				lastTrials = res.Trials
				break
			}
			if trials >= 1<<28 {
				b.Fatalf("stderr %v still above %v at %d trials", res.StdErr, precisionTarget, trials)
			}
			trials *= 2
		}
	}
	b.ReportMetric(float64(lastTrials), "trials")
}

// BenchmarkTrialsToPrecision measures the cost of a ±1e-4 win-probability
// estimate across the instance shapes the ROADMAP's repeated-evaluation
// workloads sweep: small, medium, and large homogeneous threshold games
// plus a heterogeneous-π mixed instance.
func BenchmarkTrialsToPrecision(b *testing.B) {
	mustThr := func(beta float64) model.LocalRule {
		r, err := model.NewThresholdRule(beta)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	for _, n := range []int{3, 10, 20} {
		var sys *model.System
		var err error
		if n == 3 {
			// The canonical Section 5.2.1 near-optimum.
			sys, err = model.UniformSystem(3, mustThr(0.622), 1)
		} else {
			sys, err = model.UniformSystem(n, mustThr(0.5), 0.375*float64(n))
		}
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchTrialsToPrecision(b, sys)
		})
	}
	hetero, err := model.NewSystemPi(
		[]model.LocalRule{mustThr(0.4), mustThr(0.622), mustThr(0.5)},
		1, []float64{0.5, 1, 0.75})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hetero", func(b *testing.B) {
		benchTrialsToPrecision(b, hetero)
	})
}
