package response

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/oblivious"
	"repro/internal/sim"
)

func TestNewStepRuleValidation(t *testing.T) {
	if _, err := NewStepRule(nil); err == nil {
		t.Error("empty cells: expected error")
	}
	if _, err := NewStepRule([]float64{0.5, 1.2}); err == nil {
		t.Error("probability > 1: expected error")
	}
	if _, err := NewStepRule([]float64{-0.1}); err == nil {
		t.Error("negative probability: expected error")
	}
	if _, err := NewStepRule([]float64{math.NaN()}); err == nil {
		t.Error("NaN: expected error")
	}
	r, err := NewStepRule([]float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cells() != 3 {
		t.Errorf("Cells = %d", r.Cells())
	}
	ps := r.Probs()
	ps[0] = 9
	if r.probs[0] == 9 {
		t.Error("Probs() leaked internal slice")
	}
}

func TestStepRuleProbAt(t *testing.T) {
	r, err := NewStepRule([]float64{0.1, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0.1}, {0.2, 0.1}, {0.34, 0.5}, {0.66, 0.5}, {0.67, 0.9},
		{0.99, 0.9}, {1, 0.9}, {-0.5, 0.1}, {1.5, 0.9},
	}
	for _, c := range cases {
		if got := r.ProbAt(c.x); got != c.want {
			t.Errorf("ProbAt(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestStepRuleLocalRule(t *testing.T) {
	r, err := NewStepRule([]float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	lr := r.LocalRule()
	// Deterministic cells work without an rng.
	b, err := lr.Decide(0.25, nil)
	if err != nil || b != model.Bin0 {
		t.Errorf("Decide(0.25) = %v, %v; want Bin0", b, err)
	}
	b, err = lr.Decide(0.75, nil)
	if err != nil || b != model.Bin1 {
		t.Errorf("Decide(0.75) = %v, %v; want Bin1", b, err)
	}
	// Randomized cells need an rng.
	r2, err := NewStepRule([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.LocalRule().Decide(0.5, nil); err == nil {
		t.Error("randomized cell with nil rng: expected error")
	}
}

func TestWinProbabilityStepMatchesDeterministicLimits(t *testing.T) {
	// A 0/1 step rule is the interval set of its 1-cells, so the lattice
	// kernel and the interval kernel must agree to rounding.
	const cells = 64
	cases := []struct {
		n        int
		capacity float64
		set      []Interval
	}{
		{3, 1, []Interval{{0, 0.5}}},
		{4, 4.0 / 3, []Interval{{20.0 / cells, 48.0 / cells}}},
		{5, 5.0 / 3, []Interval{{0, 8.0 / cells}, {24.0 / cells, 40.0 / cells}, {63.0 / cells, 1}}},
		{12, 4, []Interval{{0, 0.25}, {0.5, 0.75}}},
	}
	for _, c := range cases {
		ev, err := NewEvaluator(c.n, c.capacity)
		if err != nil {
			t.Fatal(err)
		}
		set := mustSet(t, c.set...)
		probs := make([]float64, cells)
		for i := range probs {
			if set.Contains((float64(i) + 0.5) / cells) {
				probs[i] = 1
			}
		}
		r, err := NewStepRule(probs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.WinProbabilityStep(r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ev.WinProbability(set)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("n=%d δ=%v set %v: step kernel %v vs interval kernel %v", c.n, c.capacity, set, got, want)
		}
	}
	ev, err := NewEvaluator(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.WinProbabilityStep(nil); err == nil {
		t.Error("nil rule: expected error")
	}
}

func TestWinProbabilityStepMatchesObliviousCoin(t *testing.T) {
	// The constant-1/2 step rule IS the oblivious fair coin.
	ev, err := NewEvaluator(4, 4.0/3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewStepRule([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.WinProbabilityStep(r)
	if err != nil {
		t.Fatal(err)
	}
	obl, err := oblivious.Optimal(4, 4.0/3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-obl.WinProbability) > 1e-12 {
		t.Errorf("constant-1/2 step %v vs Theorem 4.3 value %v", got, obl.WinProbability)
	}
}

func TestWinProbabilityStepMatchesSimulation(t *testing.T) {
	// A genuinely randomized, non-monotone response function.
	r, err := NewStepRule([]float64{0.9, 0.2, 0.7, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := ev.WinProbabilityStep(r)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := model.UniformSystem(3, r.LocalRule(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.WinProbability(sys, sim.Config{Trials: 400000, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.P-analytic) > 4*res.StdErr {
		t.Errorf("oracle %v vs simulation %v ± %v", analytic, res.P, res.StdErr)
	}
}

func TestOptimizeStepDoesNotBeatDeterministicByMuch(t *testing.T) {
	// Within symmetric strategies, does interior randomization help?
	// The measured answer (recorded in EXPERIMENTS.md): no — the search
	// lands on an (almost) deterministic rule matching the best
	// two-interval rule.
	ev, err := NewEvaluator(4, 4.0/3)
	if err != nil {
		t.Fatal(err)
	}
	rule, val, err := ev.OptimizeStep(12)
	if err != nil {
		t.Fatal(err)
	}
	band, err := NewIntervalSet([]Interval{{0.3271, 0.7416}})
	if err != nil {
		t.Fatal(err)
	}
	bandVal, err := ev.WinProbability(band)
	if err != nil {
		t.Fatal(err)
	}
	if val < bandVal-5e-3 {
		t.Errorf("step optimum %v fell below the deterministic band %v", val, bandVal)
	}
	t.Logf("n=4 δ=4/3: step-rule optimum %.6f (band %.6f), probs %.2f", val, bandVal, rule.Probs())
	if _, _, err := ev.OptimizeStep(0); err == nil {
		t.Error("zero cells: expected error")
	}
	if _, _, err := ev.OptimizeStep(100); err == nil {
		t.Error("too many cells: expected error")
	}
}
