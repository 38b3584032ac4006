package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/nonoblivious"
	"repro/internal/oblivious"
	"repro/internal/sim"
)

// The layer probes time the two layers whose speed the workloads' spans do
// not isolate: the reusable exact evaluators, which run inside the engine
// span of a search or sweep, and the Monte-Carlo kernels, which run inside
// an experiment. They use fixed-size seeded inputs and run once per traced
// invocation, whatever the workloads. Each probe reports the median of its
// repetitions.

const streamProbe = 100

// probeMetrics are the per-layer metrics the probes report.
var probeMetrics = func() []metricSpec {
	var m []metricSpec
	for _, p := range []string{"evaluator.", "evaluator.obl_"} {
		m = append(m,
			metricSpec{p + "setup_ms", "ms", "lower", nil},
			metricSpec{p + "evaluate_us", "us", "lower", nil},
			metricSpec{p + "setcoord_us", "us", "lower", nil},
		)
	}
	m = append(m, metricSpec{"evaluator.probe_us", "us", "lower", nil})
	for _, k := range []string{"mc", "qmc"} {
		for _, n := range []int{3, 10, 20} {
			m = append(m, metricSpec{fmt.Sprintf("sim.%s_ns_per_trial_n%d", k, n), "ns", "lower", nil})
		}
	}
	return m
}()

// timeReps runs fn reps times and returns the median duration in seconds.
func timeReps(reps int, fn func() error) (float64, error) {
	d := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d = append(d, time.Since(start).Seconds())
	}
	return median(d), nil
}

// runProbes measures every probe metric; scale shrinks the repetitions and
// trial counts (1 at the benchmark's sizes).
func runProbes(seed uint64, scale float64) (map[string]float64, error) {
	reps := func(n int) int { return max(1, int(math.Round(float64(n)*scale))) }
	m := map[string]float64{}
	if err := probeEvaluators(seed, reps, m); err != nil {
		return nil, err
	}
	if err := probeSim(seed, scale, reps, m); err != nil {
		return nil, err
	}
	return m, nil
}

// probeEvaluators times the reusable evaluators at n=12: construction with
// a first evaluation, a full re-evaluation, and a single-coordinate update.
func probeEvaluators(seed uint64, reps func(int) int, m map[string]float64) error {
	const n = 12
	rng := newRNG(seed, streamProbe)
	vec := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 0.3 + 0.5*rng.Float64()
		}
		return v
	}
	delta := randDelta(rng, n, 0.1)
	pi := randPi(rng, n)

	type evaluator interface {
		Evaluate([]float64) (float64, error)
		SetCoord(int, float64) (float64, error)
	}
	for _, c := range []struct {
		prefix string
		build  func() (evaluator, error)
	}{
		{"evaluator.", func() (evaluator, error) { return nonoblivious.NewEvaluator(n, delta) }},
		{"evaluator.obl_", func() (evaluator, error) { return oblivious.NewEvaluator(pi, delta, 1) }},
	} {
		var ev evaluator
		setup, err := timeReps(reps(5), func() error {
			var err error
			if ev, err = c.build(); err != nil {
				return err
			}
			_, err = ev.Evaluate(vec())
			return err
		})
		if err != nil {
			return err
		}
		full, err := timeReps(reps(20), func() error {
			_, err := ev.Evaluate(vec())
			return err
		})
		if err != nil {
			return err
		}
		coord, err := timeReps(reps(200), func() error {
			_, err := ev.SetCoord(rng.IntN(n), 0.3+0.5*rng.Float64())
			return err
		})
		if err != nil {
			return err
		}
		m[c.prefix+"setup_ms"] = setup * 1e3
		m[c.prefix+"evaluate_us"] = full * 1e6
		m[c.prefix+"setcoord_us"] = coord * 1e6
	}

	// The searches' probe path: single-coordinate probes through the
	// threshold evaluator's line profile, which commit nothing.
	ev, err := nonoblivious.NewEvaluator(n, delta)
	if err != nil {
		return err
	}
	base := vec()
	if _, err := ev.Evaluate(base); err != nil {
		return err
	}
	x := append([]float64(nil), base...)
	probe, err := timeReps(reps(200), func() error {
		x[0] = 0.3 + 0.5*rng.Float64()
		_, err := ev.EvaluateVector(x)
		return err
	})
	if err != nil {
		return err
	}
	m["evaluator.probe_us"] = probe * 1e6
	return nil
}

// probeSim times the Monte-Carlo and quasi-Monte-Carlo kernels per trial on
// one worker, for symmetric thresholds at n = 3, 10 and 20.
func probeSim(seed uint64, scale float64, reps func(int) int, m map[string]float64) error {
	trials := max(1000, int(200_000*min(1, scale)))
	for _, n := range []int{3, 10, 20} {
		inst := engine.Instance{N: n, Delta: float64(n) / 3}
		sys, err := engine.SymmetricThreshold{Beta: 0.5}.System(inst)
		if err != nil {
			return err
		}
		cfg := sim.Config{Trials: trials, Seed: seed, Workers: 1}
		for _, k := range []struct {
			name string
			run  func() (sim.Result, error)
		}{
			{"mc", func() (sim.Result, error) { return sim.WinProbability(sys, cfg) }},
			{"qmc", func() (sim.Result, error) { return sim.WinProbabilityQMC(sys, cfg) }},
		} {
			var ns []float64
			for i := 0; i < reps(3); i++ {
				start := time.Now()
				res, err := k.run()
				if err != nil {
					return err
				}
				ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(res.Trials))
			}
			m[fmt.Sprintf("sim.%s_ns_per_trial_n%d", k.name, n)] = median(ns)
		}
	}
	return nil
}
