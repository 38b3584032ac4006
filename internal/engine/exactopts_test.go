package engine

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/problem"
)

// TestExactRulesPopulateCounters requires the five oblivious and threshold
// rules to implement ExactOpts and, evaluated on a π instance, to count
// their work in the exact.* enumeration counters.
func TestExactRulesPopulateCounters(t *testing.T) {
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
	reg := obs.NewRegistry()
	e := New(Config{Obs: obs.New(reg, nil)})
	for _, r := range rules {
		if _, ok := r.(ExactOpts); !ok {
			t.Fatalf("rule %s does not implement ExactOpts", r.Name())
		}
		if _, err := e.Evaluate(inst, r, Exact); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
	}
	snap := reg.Snapshot()
	for _, name := range []string{"exact.subsets", "exact.steps.incremental"} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s not populated: %d", name, snap.Counters[name])
		}
	}
}

// TestExactCountersHomogeneousThreshold pins the exact.* counters of one
// homogeneous Threshold evaluation at n = 6, δ = 2: both 2^6-cell subset
// tables, the N₀ ladder's 6·2^6 power updates and its 6·6·2^5 zeta
// additions. The N₁ side runs only the exponents m > δ, here m = 3…6:
// 4·2^6 = 256 rebuilt base cells and 4·6·2^5 = 768 zeta additions, so
// 384 + 1152 + 768 = 2304 incremental steps. It then pins a shared
// threshold on a π instance, whose bin-1 table is rebuilt per exponent
// too and so moves exact.steps.rebuilt.
func TestExactCountersHomogeneousThreshold(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Obs: obs.New(reg, nil)})
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
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("counter %s = %d, want %d", name, got, v)
		}
	}
	// β = 0.625 on π = (0.5, 1.25, 0.75, 2, 1, 1.5): player 0 can never
	// choose bin 1 and sets of more than 3 vanish (4·0.625 ≥ δ), so the
	// bin-1 table covers 3 exponents. The widest residual width is
	// 2 − 0.625 = 1.375 = δ − β, so every single set fits its whole box
	// and m = 1 takes Π w without a pass. The table runs m = 2, 3:
	// 2·2^6 rebuilt base cells and 2·6·2^5 zeta additions on top of the
	// bin-0 table's 6·2^6 + 6²·2^5.
	reg = obs.NewRegistry()
	e = New(Config{Obs: obs.New(reg, nil)})
	pi := Instance{N: 6, Delta: 2, Pi: []float64{0.5, 1.25, 0.75, 2, 1, 1.5}}
	if _, err := e.Evaluate(pi, SymmetricThreshold{Beta: 0.625}, Exact); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	want = map[string]int64{
		"exact.subsets":           128,
		"exact.steps.rebuilt":     128,
		"exact.steps.incremental": 1920,
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("shared β on π: counter %s = %d, want %d", name, got, v)
		}
	}
}
