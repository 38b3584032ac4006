package engine

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/sim"
)

func TestParseBackendQMC(t *testing.T) {
	for _, s := range []string{"mc-qmc", "qmc", "MCQMC", "Mc-Qmc"} {
		b, err := ParseBackend(s)
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", s, err)
		}
		if b != MonteCarloQMC {
			t.Errorf("ParseBackend(%q) = %v, want MonteCarloQMC", s, b)
		}
	}
	if MonteCarloQMC.String() != "mc-qmc" {
		t.Errorf("MonteCarloQMC.String() = %q, want mc-qmc", MonteCarloQMC.String())
	}
}

// TestQMCBackendDispatch: an explicit mc-qmc request runs the QMC
// estimator and surfaces the replicate machinery in the result.
func TestQMCBackendDispatch(t *testing.T) {
	e := New(Config{})
	inst := Instance{N: 3, Delta: 1}
	res, err := e.EvaluateWithCtx(context.Background(), inst, SymmetricThreshold{Beta: 0.622}, MonteCarloQMC,
		sim.Config{Trials: 1 << 14, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != MonteCarloQMC {
		t.Errorf("Backend = %v, want MonteCarloQMC", res.Backend)
	}
	if res.Sim == nil || res.Sim.Replicates != sim.DefaultReplicates {
		t.Errorf("Sim result %+v lacks replicate count %d", res.Sim, sim.DefaultReplicates)
	}
	if !(res.StdErr > 0) {
		t.Errorf("StdErr = %v, want > 0", res.StdErr)
	}
}

// TestQMCRejectsSimulatorRules: protocol rules carry bespoke trial logic
// that cannot run on the lane kernel; mc-qmc must refuse, not silently
// fall back.
func TestQMCRejectsSimulatorRules(t *testing.T) {
	e := New(Config{})
	inst := Instance{N: 2, Delta: 1}
	r := OneBitRule{}
	if _, err := e.EvaluateWithCtx(context.Background(), inst, r, MonteCarloQMC, sim.Config{Trials: 1000}); err == nil {
		t.Error("mc-qmc accepted a Simulator-only protocol rule")
	}
}

// TestQMCCacheKeyWorkerIndependent: QMC results do not depend on Workers,
// so evaluations differing only in worker count must share a cache slot —
// while a different Replicates count must not.
func TestQMCCacheKeyWorkerIndependent(t *testing.T) {
	e := New(Config{})
	inst := Instance{N: 3, Delta: 1}
	r := SymmetricThreshold{Beta: 0.5}
	base := sim.Config{Trials: 1 << 13, Seed: 11, Workers: 1}
	first, err := e.EvaluateWithCtx(context.Background(), inst, r, MonteCarloQMC, base)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first evaluation reported cached")
	}
	base.Workers = 4
	again, err := e.EvaluateWithCtx(context.Background(), inst, r, MonteCarloQMC, base)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("worker count changed the mc-qmc cache key")
	}
	if again.P != first.P || again.StdErr != first.StdErr {
		t.Errorf("cached result %+v differs from first %+v", again, first)
	}
	base.Replicates = 8
	other, err := e.EvaluateWithCtx(context.Background(), inst, r, MonteCarloQMC, base)
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Error("replicate count is missing from the mc-qmc cache key")
	}
}

// TestQMCMatchesExactOnDyadicInstances is the QMC correctness property
// test: on random dyadic instances — thresholds, coin biases, capacities
// and per-player π all multiples of 1/2^k — the mc-qmc estimate must land
// within its own replicate error bound of the analytic oracle. Dyadic
// parameters align the win-region boundaries with the Sobol point set's
// dyadic stratification, so these are exactly the instances where a
// broken scrambler or index stream would show up as bias rather than
// noise.
func TestQMCMatchesExactOnDyadicInstances(t *testing.T) {
	e := New(Config{})
	rng := rand.New(rand.NewPCG(2026, 8))
	dyadic := func(k int) float64 { // uniform multiple of 2^-k in (0, 1]
		return float64(rng.IntN(1<<k)+1) / float64(int(1)<<k)
	}
	const trials = 1 << 15
	for i := 0; i < 12; i++ {
		n := 2 + rng.IntN(4)
		inst := Instance{N: n, Delta: dyadic(3) * float64(n)}
		hetero := i%2 == 1
		if hetero {
			pi := make([]float64, n)
			for j := range pi {
				pi[j] = dyadic(4)
			}
			inst.Pi = pi
		}
		var r ExactOpts
		if i%4 < 2 {
			r = SymmetricThreshold{Beta: dyadic(4)}
		} else {
			r = SymmetricOblivious{A: dyadic(4)}
		}
		exact, err := e.EvaluateWithCtx(context.Background(), inst, r, Exact, sim.Config{})
		if err != nil {
			t.Fatalf("case %d (%s on %+v): exact: %v", i, r.Name(), inst, err)
		}
		qmc, err := e.EvaluateWithCtx(context.Background(), inst, r, MonteCarloQMC,
			sim.Config{Trials: trials, Seed: uint64(1000 + i)})
		if err != nil {
			t.Fatalf("case %d (%s on %+v): qmc: %v", i, r.Name(), inst, err)
		}
		// 6 stderr with a small absolute floor: ~1e-8 per-case false
		// positive rate, yet tight enough that any systematic bias in the
		// sampler (values outside [0,1), broken scrambling, repeated
		// indices) fails loudly.
		tol := math.Max(6*qmc.StdErr, 5e-4)
		if diff := math.Abs(qmc.P - exact.P); diff > tol {
			t.Errorf("case %d (%s on %+v): qmc %v vs exact %v, |diff| %v > %v (stderr %v)",
				i, r.Name(), inst, qmc.P, exact.P, diff, tol, qmc.StdErr)
		}
	}
}
