package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/nonoblivious"
	"repro/internal/oblivious"
	"repro/internal/problem"
	"repro/internal/py91"
	"repro/internal/response"
	"repro/internal/sim"
)

func mustInstancePi(t *testing.T, n int, delta float64, pi []float64) Instance {
	t.Helper()
	inst, err := problem.NewPi(n, delta, pi)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestHeteroExactParity pins the engine's heterogeneous Exact dispatch to
// the underlying subset-sum evaluators, bit for bit.
func TestHeteroExactParity(t *testing.T) {
	e := New(Config{})
	pi := []float64{0.5, 1, 0.75}
	inst := mustInstancePi(t, 3, 1, pi)

	wantObl, err := oblivious.WinningProbabilityPi([]float64{0.5, 0.5, 0.5}, pi, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotObl, err := e.Evaluate(inst, SymmetricOblivious{A: 0.5}, Exact)
	if err != nil {
		t.Fatal(err)
	}
	if gotObl.P != wantObl {
		t.Errorf("oblivious: engine %v != evaluator %v", gotObl.P, wantObl)
	}

	wantThr, err := nonoblivious.WinningProbabilityPi([]float64{0.5, 0.5, 0.5}, pi, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotThr, err := e.Evaluate(inst, SymmetricThreshold{Beta: 0.5}, Exact)
	if err != nil {
		t.Fatal(err)
	}
	if gotThr.P != wantThr {
		t.Errorf("threshold: engine %v != evaluator %v", gotThr.P, wantThr)
	}

	wantVec, err := nonoblivious.WinningProbabilityPi([]float64{0.3, 0.5, 0.7}, pi, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotVec, err := e.Evaluate(inst, Threshold{Thresholds: []float64{0.3, 0.5, 0.7}}, Exact)
	if err != nil {
		t.Fatal(err)
	}
	if gotVec.P != wantVec {
		t.Errorf("threshold vector: engine %v != evaluator %v", gotVec.P, wantVec)
	}
}

// TestHeteroExactVsMonteCarlo cross-checks the heterogeneous Exact
// backend against the widths-aware sampling kernel through the engine for
// every simulable rule class.
func TestHeteroExactVsMonteCarlo(t *testing.T) {
	e := New(Config{})
	inst := mustInstancePi(t, 3, 1, []float64{0.5, 1, 0.75})
	cfg := sim.Config{Trials: 200_000, Seed: 17, Workers: 2}
	rules := []Rule{
		SymmetricOblivious{A: 0.5},
		Oblivious{Alphas: []float64{0.2, 0.6, 0.9}},
		DeterministicSplit{K: 2},
		SymmetricThreshold{Beta: 0.5},
		Threshold{Thresholds: []float64{0.3, 0.5, 0.7}},
	}
	for _, r := range rules {
		exact, err := e.Evaluate(inst, r, Exact)
		if err != nil {
			t.Fatalf("%s exact: %v", r.Name(), err)
		}
		mc, err := e.EvaluateWithCtx(context.Background(), inst, r, MonteCarlo, cfg)
		if err != nil {
			t.Fatalf("%s mc: %v", r.Name(), err)
		}
		if mc.StdErr <= 0 {
			t.Fatalf("%s: no standard error", r.Name())
		}
		if z := math.Abs(mc.P-exact.P) / mc.StdErr; z > 4 {
			t.Errorf("%s: mc %v vs exact %v is %.1f standard errors apart", r.Name(), mc.P, exact.P, z)
		}
	}
}

// TestHeteroUnsupportedRules checks that rule classes whose exact
// analysis or protocol is homogeneous-only reject heterogeneous
// instances with a diagnostic naming the π vector.
func TestHeteroUnsupportedRules(t *testing.T) {
	e := New(Config{})
	inst := mustInstancePi(t, 3, 1, []float64{0.5, 1, 1})
	set, err := response.NewIntervalSet([]response.Interval{{Lo: 0, Hi: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	iv := IntervalRule{Set: set}
	cases := []struct {
		name    string
		rule    Rule
		backend Backend
	}{
		{"interval exact", iv, Exact},
		{"py91 exact", PY91Rule{Protocol: py91.ConjecturedOptimal()}, Exact},
		{"py91 mc", PY91Rule{Protocol: py91.ConjecturedOptimal()}, MonteCarlo},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := e.Evaluate(inst, c.rule, c.backend)
			if err == nil {
				t.Fatal("expected heterogeneous rejection")
			}
			if !strings.Contains(err.Error(), "π=(0.5,1,1)") {
				t.Errorf("error should name the π vector: %v", err)
			}
		})
	}
	// Interval rules still simulate on heterogeneous instances: only the
	// exact interval-set oracle is homogeneous-bound.
	if _, err := e.EvaluateWithCtx(context.Background(), inst, iv, MonteCarlo, sim.Config{Trials: 1000, Seed: 1}); err != nil {
		t.Errorf("interval mc on heterogeneous instance: %v", err)
	}
}

// TestHeteroCacheKeys checks the memoization identity over π: an
// all-ones vector shares the homogeneous entry, a genuinely
// heterogeneous vector gets its own.
func TestHeteroCacheKeys(t *testing.T) {
	e := New(Config{})
	hom := mustInstance(t, 3, 1)
	ones := mustInstancePi(t, 3, 1, []float64{1, 1, 1})
	het := mustInstancePi(t, 3, 1, []float64{0.5, 1, 1})
	rule := SymmetricThreshold{Beta: 0.5}

	first, err := e.Evaluate(hom, rule, Exact)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := e.Evaluate(ones, rule, Exact)
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Cached || cached.P != first.P {
		t.Errorf("all-ones π should hit the homogeneous cache entry: %+v", cached)
	}
	other, err := e.Evaluate(het, rule, Exact)
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Error("heterogeneous instance served from the homogeneous cache entry")
	}
	if other.P == first.P {
		t.Errorf("heterogeneous value %v should differ from homogeneous %v", other.P, first.P)
	}
	if e.CacheLen() != 2 {
		t.Errorf("cache has %d entries, want 2", e.CacheLen())
	}
}

// TestMonteCarloEvaluateAllocs bounds the allocations of one full
// Monte-Carlo Evaluate on a fresh engine: setup cost only, nothing per
// trial (50k trials would dwarf the bound if sampling allocated).
func TestMonteCarloEvaluateAllocs(t *testing.T) {
	inst := mustInstancePi(t, 3, 1, []float64{0.5, 1, 0.75})
	cfg := sim.Config{Trials: 50_000, Seed: 3, Workers: 1}
	allocs := testing.AllocsPerRun(5, func() {
		e := New(Config{})
		if _, err := e.EvaluateWithCtx(context.Background(), inst, SymmetricThreshold{Beta: 0.5}, MonteCarlo, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Errorf("Monte-Carlo Evaluate allocated %v times for 50k trials; sampling must not allocate per trial", allocs)
	}
}
