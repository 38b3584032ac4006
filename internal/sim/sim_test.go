package sim

import (
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/problem"
)

func thresholdSystem(t *testing.T, n int, beta, capacity float64) *model.System {
	t.Helper()
	rule, err := model.NewThresholdRule(beta)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := model.UniformSystem(n, rule, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestConfigValidation(t *testing.T) {
	sys := thresholdSystem(t, 3, 0.5, 1)
	if _, err := WinProbability(sys, Config{Trials: 0}); err == nil {
		t.Error("zero trials: expected error")
	}
	if _, err := WinProbability(sys, Config{Trials: 10, Workers: -1}); err == nil {
		t.Error("negative workers: expected error")
	}
	if _, err := WinProbability(nil, Config{Trials: 10}); err == nil {
		t.Error("nil system: expected error")
	}
	// More workers than trials is fine (clamped).
	if _, err := WinProbability(sys, Config{Trials: 3, Workers: 16}); err != nil {
		t.Errorf("workers > trials: unexpected error %v", err)
	}
}

func TestWinProbabilityDeterministicForSeed(t *testing.T) {
	sys := thresholdSystem(t, 3, 0.622, 1)
	cfg := Config{Trials: 20000, Workers: 4, Seed: 99}
	a, err := WinProbability(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := WinProbability(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Wins != b.Wins || a.P != b.P {
		t.Errorf("same seed gave different results: %v vs %v", a, b)
	}
	c, err := WinProbability(sys, Config{Trials: 20000, Workers: 4, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	if a.Wins == c.Wins {
		t.Error("different seeds gave identical win counts (suspicious)")
	}
}

func TestWinProbabilityMatchesPaperN3Optimum(t *testing.T) {
	// Section 5.2.1: threshold 1-sqrt(1/7) at n=3, δ=1 wins with
	// probability ≈ 0.54498.
	beta := 1 - math.Sqrt(1.0/7)
	sys := thresholdSystem(t, 3, beta, 1)
	res, err := WinProbability(sys, Config{Trials: 400000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.54498
	if math.Abs(res.P-want) > 4*res.StdErr+1e-9 {
		t.Errorf("simulated P = %v ± %v, want ≈ %v", res.P, res.StdErr, want)
	}
	if !(res.CILo < want && want < res.CIHi) {
		t.Errorf("CI [%v, %v] should contain %v", res.CILo, res.CIHi, want)
	}
	if res.Trials != 400000 || res.Wins <= 0 {
		t.Errorf("counts: %d/%d", res.Wins, res.Trials)
	}
}

func TestWinProbabilityObliviousHalf(t *testing.T) {
	// Oblivious α = 1/2 at n=3, δ=1 wins with probability 5/12 ≈ 0.4167
	// (Theorem 4.3 evaluated directly).
	rule, err := model.NewObliviousRule(0.5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := model.UniformSystem(3, rule, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := WinProbability(sys, Config{Trials: 400000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	want := 5.0 / 12
	if math.Abs(res.P-want) > 4*res.StdErr {
		t.Errorf("simulated oblivious P = %v ± %v, want 5/12 ≈ %v", res.P, res.StdErr, want)
	}
}

func TestFeasibilityProbabilityDominatesThreshold(t *testing.T) {
	sysRes, err := WinProbability(thresholdSystem(t, 3, 0.622, 1), Config{Trials: 200000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	feas, err := FeasibilityProbability(problem.Instance{N: 3, Delta: 1}, Config{Trials: 200000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if feas.P < sysRes.P {
		t.Errorf("omniscient feasibility %v below algorithm %v", feas.P, sysRes.P)
	}
	// For n=3, δ=1 the instance is feasible iff some pair of inputs sums
	// to at most 1, and Vol{x ∈ [0,1]³ : all pairwise sums > 1} = 1/4, so
	// the exact feasibility probability is 3/4.
	if math.Abs(feas.P-0.75) > 4*feas.StdErr {
		t.Errorf("feasibility P = %v ± %v, want exactly 3/4", feas.P, feas.StdErr)
	}
}

func TestFeasibilityProbabilityValidation(t *testing.T) {
	cfg := Config{Trials: 100}
	if _, err := FeasibilityProbability(problem.Instance{N: 0, Delta: 1}, cfg); err == nil {
		t.Error("n=0: expected error")
	}
	if _, err := FeasibilityProbability(problem.Instance{N: 31, Delta: 1}, cfg); err == nil {
		t.Error("n=31: expected error")
	}
	if _, err := FeasibilityProbability(problem.Instance{N: 3, Delta: 0}, cfg); err == nil {
		t.Error("zero capacity: expected error")
	}
	if _, err := FeasibilityProbability(problem.Instance{N: 3, Delta: 1}, Config{Trials: 0}); err == nil {
		t.Error("zero trials: expected error")
	}
}

func TestLoadStats(t *testing.T) {
	// With threshold 0.5 and n=4, bin-0 load is the sum of inputs below
	// 1/2: each contributes with probability 1/2 a U[0, 1/2] value, so the
	// mean is 4 · (1/2) · (1/4) = 1/2.
	sys := thresholdSystem(t, 4, 0.5, 10)
	r, err := LoadStats(sys, Config{Trials: 200000, Seed: 17}, func(o model.Outcome) float64 {
		return o.Load0
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Mean()-0.5) > 0.005 {
		t.Errorf("mean bin-0 load = %v, want ≈ 0.5", r.Mean())
	}
	if r.N() != 200000 {
		t.Errorf("N = %d", r.N())
	}
	if r.Min() < 0 || r.Max() > 2 {
		t.Errorf("load range [%v, %v] impossible", r.Min(), r.Max())
	}
	if _, err := LoadStats(nil, Config{Trials: 10}, func(model.Outcome) float64 { return 0 }); err == nil {
		t.Error("nil system: expected error")
	}
	if _, err := LoadStats(sys, Config{Trials: 10}, nil); err == nil {
		t.Error("nil metric: expected error")
	}
	if _, err := LoadStats(sys, Config{Trials: 0}, func(model.Outcome) float64 { return 0 }); err == nil {
		t.Error("zero trials: expected error")
	}
}

func TestBernoulli(t *testing.T) {
	// A trial that succeeds iff a uniform draw is below 0.25.
	trial := func(rng *rand.Rand) (bool, error) { return rng.Float64() < 0.25, nil }
	res, err := Bernoulli(Config{Trials: 200000, Seed: 23}, "quarter", trial)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.P-0.25) > 4*res.StdErr {
		t.Errorf("P = %v ± %v, want ≈ 0.25", res.P, res.StdErr)
	}
	if res.Trials != 200000 {
		t.Errorf("trials = %d", res.Trials)
	}
	// Deterministic for a fixed (seed, workers) layout.
	again, err := Bernoulli(Config{Trials: 200000, Seed: 23}, "quarter", trial)
	if err != nil {
		t.Fatal(err)
	}
	if res.Wins != again.Wins {
		t.Errorf("same seed gave %d then %d wins", res.Wins, again.Wins)
	}
	if _, err := Bernoulli(Config{Trials: 10}, "", nil); err == nil {
		t.Error("nil trial: expected error")
	}
	if _, err := Bernoulli(Config{Trials: 0}, "", trial); err == nil {
		t.Error("zero trials: expected error")
	}
	wantErr := errors.New("boom")
	if _, err := Bernoulli(Config{Trials: 10}, "", func(*rand.Rand) (bool, error) { return false, wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("trial error not propagated: %v", err)
	}
}

func TestWorkerCount(t *testing.T) {
	// Regression test for the repo-wide worker policy: 0 defaults to
	// GOMAXPROCS, negatives are rejected, and a positive jobs bound clamps.
	if w, err := WorkerCount(0, 1<<30); err != nil || w != runtime.GOMAXPROCS(0) {
		t.Errorf("WorkerCount(0, big) = %d, %v; want GOMAXPROCS = %d", w, err, runtime.GOMAXPROCS(0))
	}
	if w, err := WorkerCount(5, 0); err != nil || w != 5 {
		t.Errorf("WorkerCount(5, unbounded) = %d, %v; want 5", w, err)
	}
	if w, err := WorkerCount(16, 3); err != nil || w != 3 {
		t.Errorf("WorkerCount(16, 3) = %d, %v; want clamp to 3", w, err)
	}
	if w, err := WorkerCount(2, 8); err != nil || w != 2 {
		t.Errorf("WorkerCount(2, 8) = %d, %v; want 2", w, err)
	}
	if _, err := WorkerCount(-1, 10); err == nil {
		t.Error("negative workers: expected error")
	}
	// The clamp never returns less than one worker.
	if w, err := WorkerCount(0, 1); err != nil || w != 1 {
		t.Errorf("WorkerCount(0, 1) = %d, %v; want 1", w, err)
	}
}

func TestWorkerCountDoesNotBiasEstimate(t *testing.T) {
	sys := thresholdSystem(t, 3, 0.622, 1)
	r1, err := WinProbability(sys, Config{Trials: 100000, Workers: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := WinProbability(sys, Config{Trials: 100000, Workers: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Different stream layouts, but both must agree within sampling error.
	if math.Abs(r1.P-r8.P) > 4*(r1.StdErr+r8.StdErr) {
		t.Errorf("1-worker %v vs 8-worker %v differ beyond sampling error", r1.P, r8.P)
	}
}

// TestDriverBits pins the entry points no golden covers: LoadStats mean
// and variance, WinProbabilityQMC estimate and standard error, and the
// Bernoulli win count, at a fixed seed on one worker and on three. Three
// workers split neither the LoadStats nor the Bernoulli budget evenly, so
// the pins also fix which workers get the extra trials.
func TestDriverBits(t *testing.T) {
	sys := qmcSystem(t)
	quarter := func(rng *rand.Rand) (bool, error) { return rng.Float64() < 0.25, nil }
	for _, c := range []struct {
		workers         int
		mean, variance  uint64
		qmcP, qmcStdErr uint64
		bernoulliWins   int64
	}{
		{1, 0x3fdb20154e7dcf2c, 0x3fc2199ba9b78bee, 0x3fe16e0000000000, 0x3f64051e10b724a2, 1172},
		{3, 0x3fdb253950d34701, 0x3fc1a61595a3c3e5, 0x3fe16e0000000000, 0x3f64051e10b724a2, 1208},
	} {
		r, err := LoadStats(sys, Config{Trials: 5000, Workers: c.workers, Seed: 31}, func(o model.Outcome) float64 { return o.Load0 })
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(r.Mean()); got != c.mean {
			t.Errorf("workers=%d LoadStats mean bits %#016x, want %#016x", c.workers, got, c.mean)
		}
		if got := math.Float64bits(r.Variance()); got != c.variance {
			t.Errorf("workers=%d LoadStats variance bits %#016x, want %#016x", c.workers, got, c.variance)
		}
		q, err := WinProbabilityQMC(sys, Config{Trials: 4096, Workers: c.workers, Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(q.P); got != c.qmcP {
			t.Errorf("workers=%d QMC P bits %#016x, want %#016x", c.workers, got, c.qmcP)
		}
		if got := math.Float64bits(q.StdErr); got != c.qmcStdErr {
			t.Errorf("workers=%d QMC StdErr bits %#016x, want %#016x", c.workers, got, c.qmcStdErr)
		}
		b, err := Bernoulli(Config{Trials: 5002, Workers: c.workers, Seed: 23}, "quarter", quarter)
		if err != nil {
			t.Fatal(err)
		}
		if b.Wins != c.bernoulliWins || b.Trials != 5002 {
			t.Errorf("workers=%d Bernoulli %d/%d, want %d/5002", c.workers, b.Wins, b.Trials, c.bernoulliWins)
		}
	}
}
