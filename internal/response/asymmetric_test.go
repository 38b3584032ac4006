package response

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/nonoblivious"
	"repro/internal/optimize"
	"repro/internal/sim"
)

func thresholdSets(t *testing.T, betas ...float64) []IntervalSet {
	t.Helper()
	out := make([]IntervalSet, len(betas))
	for i, b := range betas {
		s, err := Threshold(b)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

func TestWinProbabilityVectorMatchesThresholdTheory(t *testing.T) {
	// Per-player thresholds are a special case; must match Theorem 5.1.
	betas := []float64{0.4, 0.7, 0.55}
	got, err := WinProbabilityVector(thresholdSets(t, betas...), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := nonoblivious.WinningProbability(betas, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-11 {
		t.Errorf("vector sets %v vs Theorem 5.1 %v", got, want)
	}
}

func TestWinProbabilityVectorMatchesExactOnSymmetricBand(t *testing.T) {
	band, err := NewIntervalSet([]Interval{{0.327, 0.742}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := WinProbabilityVector([]IntervalSet{band, band, band, band}, 4.0/3)
	if err != nil {
		t.Fatal(err)
	}
	rband, err := NewRatIntervalSet([]RatInterval{{big.NewRat(327, 1000), big.NewRat(742, 1000)}})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactWinProbability(4, big.NewRat(4, 3), rband)
	if err != nil {
		t.Fatal(err)
	}
	ef, _ := exact.Float64()
	if math.Abs(got-ef) > 1e-10 {
		t.Errorf("float vector %v vs exact %v", got, ef)
	}
}

func TestWinProbabilityVectorMatchesSimulationAsymmetric(t *testing.T) {
	// Genuinely asymmetric: one threshold player, one band player, one
	// high-pass player.
	s1, err := NewIntervalSet([]Interval{{0, 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewIntervalSet([]Interval{{0.3, 0.8}})
	if err != nil {
		t.Fatal(err)
	}
	s3, err := NewIntervalSet([]Interval{{0.5, 1}})
	if err != nil {
		t.Fatal(err)
	}
	sets := []IntervalSet{s1, s2, s3}
	analytic, err := WinProbabilityVector(sets, 1)
	if err != nil {
		t.Fatal(err)
	}
	rules := make([]model.LocalRule, len(sets))
	for i, s := range sets {
		r, err := s.Rule("set")
		if err != nil {
			t.Fatal(err)
		}
		rules[i] = r
	}
	sys, err := model.NewSystem(rules, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.WinProbability(sys, sim.Config{Trials: 400000, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.P-analytic) > 4*res.StdErr {
		t.Errorf("analytic %v vs simulation %v ± %v", analytic, res.P, res.StdErr)
	}
}

func TestWinProbabilityVectorValidation(t *testing.T) {
	band, err := NewIntervalSet([]Interval{{0.3, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WinProbabilityVector([]IntervalSet{band}, 1); err == nil {
		t.Error("single player: expected error")
	}
	if _, err := WinProbabilityVector(make([]IntervalSet, 11), 1); err == nil {
		t.Error("too many players: expected error")
	}
	if _, err := WinProbabilityVector([]IntervalSet{band, band}, 0); err == nil {
		t.Error("zero capacity: expected error")
	}
	many, err := NewIntervalSet([]Interval{
		{0, 0.1}, {0.2, 0.3}, {0.4, 0.5}, {0.6, 0.7}, {0.8, 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WinProbabilityVector([]IntervalSet{many, band}, 1); err == nil {
		t.Error("too many intervals: expected error")
	}
	// Four intervals inside (0, 1) pass the region cap, but their
	// complement holds five and must be refused too.
	four, err := NewIntervalSet([]Interval{
		{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}, {0.7, 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p, err := WinProbabilityVector([]IntervalSet{four, four}, 1); err == nil {
		t.Errorf("complement with 5 intervals: got %v, expected error", p)
	}
}

func TestAsymmetricSearchAtN4(t *testing.T) {
	// Does per-player asymmetry beat the symmetric band at n=4, δ=4/3?
	// Each player gets an independent band [a_i, b_i] (8 parameters).
	// Measured answer (recorded in EXPERIMENTS.md): no material gain —
	// the optimum stays at the symmetric band value ≈ 0.4787.
	const n = 4
	capacity := 4.0 / 3
	obj := func(v []float64) float64 {
		sets := make([]IntervalSet, n)
		for i := 0; i < n; i++ {
			a, b := v[2*i], v[2*i+1]
			if a > b {
				a, b = b, a
			}
			s, err := NewIntervalSet([]Interval{{dist.Clamp01(a), dist.Clamp01(b)}})
			if err != nil {
				return math.Inf(-1)
			}
			sets[i] = s
		}
		p, err := WinProbabilityVector(sets, capacity)
		if err != nil {
			return math.Inf(-1)
		}
		return p
	}
	start := []float64{0.33, 0.74, 0.33, 0.74, 0.33, 0.74, 0.33, 0.74}
	lo := make([]float64, 2*n)
	hi := make([]float64, 2*n)
	for i := range hi {
		hi[i] = 1
	}
	res, err := optimize.NelderMeadMax(nil, obj, start, lo, hi, 0.1, 4000, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	symmetric := 0.478720 // exact symmetric band value
	if res.Value < symmetric-2e-3 {
		t.Errorf("asymmetric search %v fell below its symmetric start %v", res.Value, symmetric)
	}
	t.Logf("n=4 asymmetric per-player bands: P = %.6f (symmetric band %.6f, gain %+.6f)",
		res.Value, symmetric, res.Value-symmetric)
	// Asymmetry escapes the symmetric class entirely: degenerate bands
	// recover the deterministic balanced split (players with full/empty
	// regions), so the search must land near the split value 0.604938.
	if res.Value < 0.59 {
		t.Errorf("asymmetric search %v should approach the balanced-split value 0.604938", res.Value)
	}
}

func TestBalancedSplitIsLocalOptimumAmongAsymmetricRules(t *testing.T) {
	// Measured finding (EXPERIMENTS.md): starting AT the balanced split
	// (players 0,1 always bin 0; players 2,3 always bin 1), no
	// Nelder-Mead perturbation of the per-player interval endpoints
	// improves on it — at n=4, δ=4/3, looking at the input buys nothing
	// beyond choosing the partition.
	const n = 4
	capacity := 4.0 / 3
	obj := func(v []float64) float64 {
		sets := make([]IntervalSet, n)
		for i := 0; i < n; i++ {
			a, b := dist.Clamp01(v[2*i]), dist.Clamp01(v[2*i+1])
			if a > b {
				a, b = b, a
			}
			s, err := NewIntervalSet([]Interval{{a, b}})
			if err != nil {
				return math.Inf(-1)
			}
			sets[i] = s
		}
		p, err := WinProbabilityVector(sets, capacity)
		if err != nil {
			return math.Inf(-1)
		}
		return p
	}
	lo := make([]float64, 2*n)
	hi := make([]float64, 2*n)
	for i := range hi {
		hi[i] = 1
	}
	start := []float64{0, 1, 0, 1, 0.5, 0.5, 0.5, 0.5} // the balanced split
	res, err := optimize.NelderMeadMax(nil, obj, start, lo, hi, 0.08, 6000, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	const split = 0.604938
	if math.Abs(res.Value-split) > 1e-4 {
		t.Errorf("search from the split found %v, want the split value %v (local optimality)", res.Value, split)
	}
}
