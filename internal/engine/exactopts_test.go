package engine

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/problem"
)

// TestExactWorkersBitIdentical evaluates the sharded exact rules through
// engines with different ExactWorkers settings and requires bit-identical
// probabilities — the invariant that keeps ExactWorkers out of the cache
// key — plus populated exact.* enumeration counters.
func TestExactWorkersBitIdentical(t *testing.T) {
	inst := Instance{N: 6, Delta: 2, Pi: []float64{0.5, 1.25, 0.75, 2, 1, 1.5}}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	rules := []Rule{
		Threshold{Thresholds: []float64{0.25, 0.5, 0.75, 0.375, 0.625, 0.5}},
		SymmetricThreshold{Beta: 0.625},
		Oblivious{Alphas: []float64{0.25, 0.5, 0.75, 0.375, 0.625, 0.5}},
		SymmetricOblivious{A: 0.5},
		DeterministicSplit{K: 3},
	}
	for _, r := range rules {
		if _, ok := r.(ExactOpts); !ok {
			t.Fatalf("rule %s does not implement ExactOpts", r.Name())
		}
	}
	reg := obs.NewRegistry()
	base := New(Config{Obs: obs.New(reg, nil), ExactWorkers: 1})
	sharded := New(Config{ExactWorkers: 4})
	for _, r := range rules {
		want, err := base.Evaluate(inst, r, Exact)
		if err != nil {
			t.Fatalf("%s workers=1: %v", r.Name(), err)
		}
		got, err := sharded.Evaluate(inst, r, Exact)
		if err != nil {
			t.Fatalf("%s workers=4: %v", r.Name(), err)
		}
		if math.Float64bits(got.P) != math.Float64bits(want.P) {
			t.Errorf("%s: workers=4 returned %x, workers=1 returned %x",
				r.Name(), math.Float64bits(got.P), math.Float64bits(want.P))
		}
	}
	snap := reg.Snapshot()
	for _, name := range []string{"exact.subsets", "exact.steps.incremental", "exact.chunks"} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s not populated: %d", name, snap.Counters[name])
		}
	}
	if snap.Gauges["exact.workers"] != 1 {
		t.Errorf("exact.workers gauge = %v, want 1", snap.Gauges["exact.workers"])
	}
	// The homogeneous game still routes through the Opts path (serial
	// closed forms for the symmetric rules, sharded SOS for Threshold).
	homog := problem.Instance{N: 6, Delta: 2}
	for _, r := range rules {
		want, err := base.Evaluate(homog, r, Exact)
		if err != nil {
			t.Fatalf("%s homogeneous workers=1: %v", r.Name(), err)
		}
		got, err := sharded.Evaluate(homog, r, Exact)
		if err != nil {
			t.Fatalf("%s homogeneous workers=4: %v", r.Name(), err)
		}
		if math.Float64bits(got.P) != math.Float64bits(want.P) {
			t.Errorf("%s homogeneous: workers=4 returned %x, workers=1 returned %x",
				r.Name(), math.Float64bits(got.P), math.Float64bits(want.P))
		}
	}
}

// TestExactCountersHomogeneousThreshold pins the exact.* counters of one
// homogeneous Threshold evaluation at n = 6, δ = 2: both 2^6-cell subset
// tables, the N₀ ladder's 6·2^6 power updates and its 6·6·2^5 zeta
// additions, and the 64-chunk mask-sum grid. The N₁ side runs only the
// exponents m > δ, here m = 3…6: 4·2^6 = 256 rebuilt base cells and
// 4·6·2^5 = 768 zeta additions, so 384 + 1152 + 768 = 2304 incremental
// steps. A 2^6-cell table is far below the sharding cutoff, so the kernel
// ran on 1 worker although the engine offered 2. It then pins a shared
// threshold on a π instance, whose bin-1 table is rebuilt per exponent
// too and so moves exact.steps.rebuilt.
func TestExactCountersHomogeneousThreshold(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Obs: obs.New(reg, nil), ExactWorkers: 2})
	inst := problem.Instance{N: 6, Delta: 2}
	rule := Threshold{Thresholds: []float64{0.25, 0.5, 0.75, 0.375, 0.625, 0.5}}
	if _, err := e.Evaluate(inst, rule, Exact); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	want := map[string]int64{
		"exact.subsets":           128,
		"exact.steps.rebuilt":     256,
		"exact.steps.incremental": 2304,
		"exact.chunks":            64,
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("counter %s = %d, want %d", name, got, v)
		}
	}
	if got := snap.Gauges["exact.workers"]; got != 1 {
		t.Errorf("exact.workers gauge = %v, want 1", got)
	}
	// β = 0.625 on π = (0.5, 1.25, 0.75, 2, 1, 1.5): player 0 can never
	// choose bin 1 and sets of more than 3 vanish (4·0.625 ≥ δ), so the
	// bin-1 table covers 3 exponents. The widest residual width is
	// 2 − 0.625 = 1.375 = δ − β, so every single set fits its whole box
	// and m = 1 takes Π w without a pass. The table runs m = 2, 3:
	// 2·2^6 rebuilt base cells and 2·6·2^5 zeta additions on top of the
	// bin-0 table's 6·2^6 + 6²·2^5.
	reg = obs.NewRegistry()
	e = New(Config{Obs: obs.New(reg, nil), ExactWorkers: 2})
	pi := Instance{N: 6, Delta: 2, Pi: []float64{0.5, 1.25, 0.75, 2, 1, 1.5}}
	if _, err := e.Evaluate(pi, SymmetricThreshold{Beta: 0.625}, Exact); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	want = map[string]int64{
		"exact.subsets":           128,
		"exact.steps.rebuilt":     128,
		"exact.steps.incremental": 1920,
		"exact.chunks":            64,
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("shared β on π: counter %s = %d, want %d", name, got, v)
		}
	}
	if got := snap.Gauges["exact.workers"]; got != 1 {
		t.Errorf("shared β on π: exact.workers gauge = %v, want 1", got)
	}
}
