package repro

// End-to-end integration tests: each test crosses several packages and
// asserts a headline property of the reproduction as a whole. They are the
// executable summary of EXPERIMENTS.md.

import (
	"context"
	"math"
	"math/big"
	"testing"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/nonoblivious"
	"repro/internal/oblivious"
	"repro/internal/problem"
	"repro/internal/py91"
	"repro/internal/response"
	"repro/internal/sim"
)

// TestEndToEndPaperHeadlines re-derives every headline number of the paper
// through the library and checks them against the published values.
func TestEndToEndPaperHeadlines(t *testing.T) {
	// Theorem 4.3 value at n=3: 5/12.
	obl, err := oblivious.Optimal(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obl.WinProbability-5.0/12) > 1e-14 {
		t.Errorf("oblivious optimum = %v, want 5/12", obl.WinProbability)
	}
	// Section 5.2.1: β* = 1-sqrt(1/7), P* ≈ 0.545.
	thr, err := nonoblivious.OptimalSymmetric(3, big.NewRat(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(thr.BetaFloat-(1-math.Sqrt(1.0/7))) > 1e-14 {
		t.Errorf("β* = %v", thr.BetaFloat)
	}
	if math.Abs(thr.WinProbabilityFloat-0.545) > 1e-3 {
		t.Errorf("P* = %v", thr.WinProbabilityFloat)
	}
	// Section 5.2.2: β* ≈ 0.678 at n=4, δ=4/3.
	thr4, err := nonoblivious.OptimalSymmetric(4, big.NewRat(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(thr4.BetaFloat-0.678) > 0.005 {
		t.Errorf("n=4 β* = %v, want ≈ 0.678", thr4.BetaFloat)
	}
}

// TestEndToEndChainOfOracles checks one fixed quantity through every
// independent computational path the repository has: exact rational,
// float64 closed form, symbolic piecewise polynomial, the general-rule
// pattern masses, and Monte-Carlo simulation.
func TestEndToEndChainOfOracles(t *testing.T) {
	const n = 3
	capacity := big.NewRat(1, 1)
	beta := big.NewRat(5, 8) // 0.625, near the optimum
	betaF := 0.625

	exact, err := nonoblivious.WinningProbabilityPiRat(
		[]*big.Rat{beta, beta, beta}, nil, capacity)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := exact.Float64()

	// Path 2: float closed form.
	closed, err := nonoblivious.SymmetricWinningProbability(n, 1, betaF)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(closed-want) > 1e-12 {
		t.Errorf("closed form %v vs exact %v", closed, want)
	}
	// Path 3: symbolic piecewise polynomial.
	pw, err := nonoblivious.SymbolicSymmetric(n, capacity)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := pw.Eval(beta)
	if err != nil {
		t.Fatal(err)
	}
	if sym.Cmp(exact) != 0 {
		t.Errorf("symbolic %v vs exact %v (should be identical rationals)", sym, exact)
	}
	// Path 4: Lemma 2.4 pattern masses in the general-rule evaluator.
	ev, err := response.NewEvaluator(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	set, err := response.Threshold(betaF)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := ev.WinProbability(set)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(conv-want) > 1e-12 {
		t.Errorf("pattern masses %v vs exact %v", conv, want)
	}
	// Path 5: Monte-Carlo.
	sys, err := engine.SymmetricThreshold{Beta: betaF}.System(problem.Instance{N: n, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := sim.WinProbability(sys, sim.Config{Trials: 300000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc.P-want) > 4*mc.StdErr {
		t.Errorf("simulation %v ± %v vs exact %v", mc.P, mc.StdErr, want)
	}
}

// TestEndToEndGeometryToProbability walks the paper's derivation chain:
// Proposition 2.2 volume → Lemma 2.4 CDF → Corollary 2.6 Irwin-Hall →
// Theorem 4.1 term, asserting consistency at each hand-off: to rounding
// for the float volume table, exactly from Lemma 2.4 on.
func TestEndToEndGeometryToProbability(t *testing.T) {
	// Volume of {x ∈ [0,1]³ : Σx ≤ 1} is 1/6 (Prop 2.2): the full-set cell
	// of the subset-volume table at unit widths and threshold 1 ...
	vols, _, err := dist.AllSubsetVolumes(nil, []float64{1, 1, 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	vol := vols[0b111]
	if math.Abs(vol-1.0/6) > 1e-15 {
		t.Fatalf("Prop 2.2 volume = %v, want 1/6", vol)
	}
	// ... equals the Lemma 2.4 CDF at t=1 with unit widths (Π w = 1) ...
	one := big.NewRat(1, 1)
	cdf, err := dist.CDFRat([]*big.Rat{one, one, one}, one)
	if err != nil {
		t.Fatal(err)
	}
	if cdf.Cmp(big.NewRat(1, 6)) != 0 {
		t.Fatalf("Lemma 2.4 CDF = %v, want the Prop 2.2 volume 1/6", cdf)
	}
	// ... which at unit widths is Corollary 2.6, as the Irwin-Hall ladder
	// computes it ...
	ihF, _ := cdf.Float64()
	ih, err := dist.IrwinHallCDF(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ih-ihF) > 1e-15 {
		t.Fatalf("Corollary 2.6 = %v, want %v", ih, ihF)
	}
	// ... and feeds the Theorem 4.1 term φ_1(0) = F_0·F_3 = 1/6.
	phi, err := oblivious.Phi(3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phi-ihF) > 1e-15 {
		t.Fatalf("φ(0) = %v, want %v", phi, ihF)
	}
}

// TestEndToEndPY91Settled verifies that the PY91 baseline and the paper's
// machinery tell one consistent story: the conjectured protocol is the
// proven optimum and sits below the omniscient bound.
func TestEndToEndPY91Settled(t *testing.T) {
	proto := py91.ConjecturedOptimal()
	exact, err := proto.ExactWinProbability()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := nonoblivious.OptimalSymmetric(3, big.NewRat(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-opt.WinProbabilityFloat) > 1e-10 {
		t.Errorf("conjectured %v vs proven %v", exact, opt.WinProbabilityFloat)
	}
	feas, err := sim.FeasibilityProbability(problem.Instance{N: 3, Delta: 1}, sim.Config{Trials: 200000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !(exact < feas.P) {
		t.Errorf("no-communication optimum %v should sit below the omniscient bound %v", exact, feas.P)
	}
}

// TestEndToEndHeterogeneousInstance crosses the full heterogeneous stack
// on n=3, π=(1/2,1,1), δ=1: the exact subset-sum evaluators (engine
// Exact backend) and the widths-aware sampling kernel (Monte-Carlo
// backend) must agree within a 99% confidence interval for both rule
// classes, and shrinking a player's range must help the threshold
// algorithm (player 1's load shrinks stochastically).
func TestEndToEndHeterogeneousInstance(t *testing.T) {
	inst, err := problem.NewPi(3, 1, []float64{0.5, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Heterogeneous() {
		t.Fatal("instance should be heterogeneous")
	}
	eng := engine.New(engine.Config{})
	cfg := sim.Config{Trials: 400_000, Seed: 29, Workers: 2}
	for _, r := range []engine.Rule{
		engine.SymmetricOblivious{A: 0.5},
		engine.SymmetricThreshold{Beta: 0.5},
		engine.Threshold{Thresholds: []float64{0.25, 0.5, 0.5}},
	} {
		exact, err := eng.Evaluate(inst, r, engine.Exact)
		if err != nil {
			t.Fatalf("%s exact: %v", r.Name(), err)
		}
		mc, err := eng.EvaluateWithCtx(context.Background(), inst, r, engine.MonteCarlo, cfg)
		if err != nil {
			t.Fatalf("%s mc: %v", r.Name(), err)
		}
		if mc.StdErr <= 0 {
			t.Fatalf("%s: no standard error", r.Name())
		}
		// 99% CI: |exact - mc| <= 2.576 standard errors.
		if diff := math.Abs(exact.P - mc.P); diff > 2.576*mc.StdErr {
			t.Errorf("%s: exact %v vs mc %v ± %v disagree beyond the 99%% CI",
				r.Name(), exact.P, mc.P, mc.StdErr)
		}
	}
	// Shrinking π_1 can only reduce the total load, so the best threshold
	// value on the heterogeneous instance dominates the homogeneous one.
	homP, err := eng.Evaluate(problem.Instance{N: 3, Delta: 1}, engine.SymmetricThreshold{Beta: 0.5}, engine.Exact)
	if err != nil {
		t.Fatal(err)
	}
	hetP, err := eng.Evaluate(inst, engine.SymmetricThreshold{Beta: 0.5}, engine.Exact)
	if err != nil {
		t.Fatal(err)
	}
	if !(hetP.P > homP.P) {
		t.Errorf("heterogeneous threshold value %v should beat homogeneous %v", hetP, homP)
	}
}
