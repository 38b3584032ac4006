package harness

import (
	"context"
	"fmt"
	"math"
	"math/big"

	"repro/internal/engine"
	"repro/internal/nonoblivious"
	"repro/internal/oblivious"
	"repro/internal/plot"
	"repro/internal/problem"
	"repro/internal/py91"
	"repro/internal/sim"
)

// FigureNs are the instance sizes shown in the paper's figures ("the
// winning probabilities for n = 3, n = 4 and n = 5").
var FigureNs = []int{3, 4, 5}

// figureSweep renders one figure: for each n in FigureNs it evaluates the
// rule family over a [0, 1] parameter grid through one sharded engine
// sweep (all curves in a single call, memoized per point).
func figureSweep(p Params, rule func(x float64) engine.Rule) ([]plot.Series, error) {
	if p.Points < 2 {
		return nil, fmt.Errorf("harness: figure needs at least 2 points, got %d", p.Points)
	}
	var points []engine.Point
	var xs []float64
	for _, n := range FigureNs {
		inst, err := problem.PaperInstance(n)
		if err != nil {
			return nil, err
		}
		for i := 0; i < p.Points; i++ {
			x := float64(i) / float64(p.Points-1)
			points = append(points, engine.Point{Instance: inst, Rule: rule(x)})
			xs = append(xs, x)
		}
	}
	results, err := p.engine().Sweep(context.Background(), points, engine.SweepOptions{
		Backend: p.Backend, Workers: p.Sim.Workers, Sim: p.Sim,
	})
	if err != nil {
		return nil, err
	}
	series := make([]plot.Series, len(FigureNs))
	for j, n := range FigureNs {
		s := plot.Series{Name: fmt.Sprintf("n=%d", n)}
		for i := 0; i < p.Points; i++ {
			k := j*p.Points + i
			s.X = append(s.X, xs[k])
			s.Y = append(s.Y, results[k].P)
		}
		series[j] = s
	}
	return series, nil
}

// Figure1 reproduces Figure 1: the winning probability of the symmetric
// single-threshold (non-oblivious) algorithm as a function of the common
// threshold β, for n = 3, 4, 5 with the paper's capacity scaling δ = n/3.
// p.Points is the number of sweep points per curve (≥ 2).
func Figure1(p Params) (Figure, error) {
	series, err := figureSweep(p, func(beta float64) engine.Rule {
		return engine.SymmetricThreshold{Beta: beta}
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "F1",
		Title:  "Non-oblivious winning probability vs threshold (δ = n/3)",
		XLabel: "threshold β",
		YLabel: "P(win)",
		Series: series,
	}, nil
}

// Figure2 reproduces Figure 2: the winning probability of the symmetric
// oblivious algorithm as a function of the common bin-0 probability a, for
// n = 3, 4, 5 with δ = n/3. The maximum sits at a = 1/2 for every n
// (Theorem 4.3's uniformity), in contrast with Figure 1's moving optimum.
func Figure2(p Params) (Figure, error) {
	series, err := figureSweep(p, func(a float64) engine.Rule {
		return engine.SymmetricOblivious{A: a}
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "F2",
		Title:  "Oblivious winning probability vs coin bias (δ = n/3)",
		XLabel: "P(bin 0) = a",
		YLabel: "P(win)",
		Series: series,
	}, nil
}

// TableOblivious builds T1: the Theorem 4.3 optimal (symmetric) oblivious
// algorithm per instance size, for δ = 1 and δ = n/3, next to the
// deterministic vertex optimum this reproduction documents. The two P(win)
// columns are evaluated through the engine; the best-split argmax comes
// from the oblivious optimizer.
func TableOblivious(ns []int, p Params) (Table, error) {
	if len(ns) == 0 {
		return Table{}, fmt.Errorf("harness: empty instance list")
	}
	t := Table{
		ID:      "T1",
		Title:   "Optimal oblivious algorithms (Theorem 4.3) per n",
		Columns: []string{"n", "δ", "α*", "P(win) @ α=1/2", "P(win) balanced split", "best split k"},
		Notes: []string{
			"α* = 1/2 for every n: the Theorem 4.3 uniformity claim, exact within symmetric algorithms.",
			"The balanced deterministic split (a hypercube vertex) exceeds the α=1/2 value because the winning probability is multilinear in α; see EXPERIMENTS.md.",
		},
	}
	eng := p.engine()
	for _, n := range ns {
		deltas := []float64{1, float64(n) / 3}
		if n == 3 {
			deltas = deltas[:1] // n/3 coincides with δ=1
		}
		for _, delta := range deltas {
			inst := engine.Instance{N: n, Delta: delta}
			half, err := eng.Evaluate(inst, engine.SymmetricOblivious{A: 0.5}, p.Backend)
			if err != nil {
				return Table{}, err
			}
			det, err := oblivious.OptimalDeterministic(n, delta)
			if err != nil {
				return Table{}, err
			}
			split, err := eng.Evaluate(inst, engine.DeterministicSplit{K: n - det.Bin1Count}, p.Backend)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%.4f", delta),
				"0.5",
				fmt.Sprintf("%.6f", half.P),
				fmt.Sprintf("%.6f", split.P),
				fmt.Sprintf("%d/%d", det.Bin1Count, n),
			})
		}
	}
	return t, nil
}

// TableCaseN3 builds T2: the Section 5.2.1 case study (n=3, δ=1) — the
// exact piecewise polynomials, the optimality condition, and the optimum
// that settles the Papadimitriou-Yannakakis conjecture.
func TableCaseN3() (Table, error) {
	res, err := nonoblivious.OptimalSymmetric(3, big.NewRat(1, 1))
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "T2",
		Title:   "Case n=3, δ=1 (Section 5.2.1)",
		Columns: []string{"quantity", "paper", "reproduction"},
	}
	wantBeta := 1 - math.Sqrt(1.0/7)
	t.Rows = append(t.Rows,
		[]string{"P(β) on [0, 1/2]", "1/6 + 3/2·β² - 1/2·β³", pieceString(res, 0)},
		[]string{"P(β) on (1/2, 1]", "-11/6 + 9β - 21/2·β² + 7/2·β³", pieceString(res, -1)},
		[]string{"optimality condition", "β² - 2β + 6/7 = 0", normalizedCondition(res)},
		[]string{"β*", fmt.Sprintf("1 - √(1/7) = %.6f", wantBeta), fmt.Sprintf("%.6f", res.BetaFloat)},
		[]string{"P*", "0.545", fmt.Sprintf("%.6f", res.WinProbabilityFloat)},
	)
	t.Notes = append(t.Notes, "β* settles the PY91 conjecture; condition shown monic (paper's normalization).")
	return t, nil
}

// TableCaseN4 builds T3: the Section 5.2.2 case study (n=4, δ=4/3).
func TableCaseN4() (Table, error) {
	res, err := nonoblivious.OptimalSymmetric(4, big.NewRat(4, 3))
	if err != nil {
		return Table{}, err
	}
	obl, err := oblivious.Optimal(4, 4.0/3)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "T3",
		Title:   "Case n=4, δ=4/3 (Section 5.2.2)",
		Columns: []string{"quantity", "paper", "reproduction"},
	}
	t.Rows = append(t.Rows,
		[]string{"β*", "≈ 0.678", fmt.Sprintf("%.6f", res.BetaFloat)},
		[]string{"P*", "(not stated)", fmt.Sprintf("%.6f", res.WinProbabilityFloat)},
		[]string{"optimality condition", "cubic (OCR-corrupted in source)", normalizedCondition(res)},
		[]string{"oblivious α=1/2 value", "(comparison claimed smaller)", fmt.Sprintf("%.6f", obl.WinProbability)},
	)
	t.Notes = append(t.Notes,
		"Reproduction finding: at n=4, δ=4/3 the oblivious 1/2-coin BEATS the optimal threshold algorithm (0.43133 > 0.42854); the paper's blanket improvement claim holds at n=3 and n=5 but not here.",
		"The paper's printed cubic -(26/3)β³+(98/3)β²-(368/9)β-416/27 has no root near 0.678 (transcription damage); the derived condition above does.",
	)
	return t, nil
}

// TableTradeoff builds T4: the knowledge/uniformity trade-off across
// instance sizes with δ = n/3 — oblivious (symmetric and deterministic),
// optimal threshold, and the omniscient feasibility bound.
func TableTradeoff(ns []int, p Params) (Table, error) {
	if len(ns) == 0 {
		return Table{}, fmt.Errorf("harness: empty instance list")
	}
	t := Table{
		ID:      "T4",
		Title:   "Knowledge/uniformity trade-off (δ = n/3)",
		Columns: []string{"n", "δ", "oblivious α=1/2", "oblivious split", "threshold β*", "P* threshold", "feasibility (sim)"},
	}
	for _, n := range ns {
		inst, err := problem.PaperInstance(n)
		if err != nil {
			return Table{}, err
		}
		row, err := computeTradeoff(inst, p.Sim)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.4f", inst.Delta),
			fmt.Sprintf("%.6f", row.obliviousHalf),
			fmt.Sprintf("%.6f", row.obliviousDeterministic),
			fmt.Sprintf("%.6f", row.optimalBeta),
			fmt.Sprintf("%.6f", row.thresholdOptimum),
			fmt.Sprintf("%.6f", row.feasibility),
		})
	}
	t.Notes = append(t.Notes, "feasibility is the omniscient full-information upper bound (Monte-Carlo).")
	return t, nil
}

// tradeoff is one T4 row: the paper's three algorithm classes plus the
// omniscient bound on one instance.
type tradeoff struct {
	// obliviousHalf is the Theorem 4.3 value at α = 1/2.
	obliviousHalf float64
	// obliviousDeterministic is the balanced-partition vertex optimum.
	obliviousDeterministic float64
	// thresholdOptimum is the Section 5.2 optimal threshold value, with
	// optimalBeta its argmax.
	thresholdOptimum float64
	optimalBeta      float64
	// feasibility is the simulated omniscient upper bound.
	feasibility float64
}

// computeTradeoff assembles the trade-off row for a homogeneous instance,
// using cfg for the simulated feasibility column.
func computeTradeoff(inst problem.Instance, cfg sim.Config) (tradeoff, error) {
	obl, err := oblivious.Optimal(inst.N, inst.Delta)
	if err != nil {
		return tradeoff{}, err
	}
	det, err := oblivious.OptimalDeterministic(inst.N, inst.Delta)
	if err != nil {
		return tradeoff{}, err
	}
	thr, err := optimalThreshold(inst)
	if err != nil {
		return tradeoff{}, err
	}
	feas, err := sim.FeasibilityProbability(inst, cfg)
	if err != nil {
		return tradeoff{}, err
	}
	return tradeoff{
		obliviousHalf:          obl.WinProbability,
		obliviousDeterministic: det.WinProbability,
		thresholdOptimum:       thr.WinProbabilityFloat,
		optimalBeta:            thr.BetaFloat,
		feasibility:            feas.P,
	}, nil
}

// optimalThreshold derives the certified Section 5.2 optimum of a
// homogeneous instance whose capacity is an exact rational (DeltaRat), as
// every paper instance's δ = n/3 is.
func optimalThreshold(inst problem.Instance) (nonoblivious.OptimalResult, error) {
	d, ok := inst.DeltaRat()
	if !ok {
		return nonoblivious.OptimalResult{}, fmt.Errorf("harness: capacity %v is not an exact rational", inst.Delta)
	}
	return nonoblivious.OptimalSymmetric(inst.N, d)
}

// TableValidation builds V1: every analytic winning probability checked
// against Monte-Carlo simulation, reporting the deviation in standard
// errors. Both columns flow through the engine — the exact backend for the
// analytic value, the Monte-Carlo backend for the estimate — so this table
// is also the end-to-end check of the engine's backend plumbing.
func TableValidation(p Params) (Table, error) {
	t := Table{
		ID:      "V1",
		Title:   "Exact formulas vs Monte-Carlo simulation",
		Columns: []string{"instance", "algorithm", "exact", "simulated", "std err", "|z|"},
	}
	eng := p.engine()
	type check struct {
		label, algo string
		inst        engine.Instance
		rule        engine.Rule
	}
	var checks []check
	for _, n := range FigureNs {
		inst, err := problem.PaperInstance(n)
		if err != nil {
			return Table{}, err
		}
		label := fmt.Sprintf("n=%d δ=%.3f", n, inst.Delta)
		checks = append(checks, check{label, "oblivious a=0.5", inst, engine.SymmetricOblivious{A: 0.5}})
		opt, err := optimalThreshold(inst)
		if err != nil {
			return Table{}, err
		}
		checks = append(checks, check{label, fmt.Sprintf("threshold β*=%.4f", opt.BetaFloat),
			inst, engine.SymmetricThreshold{Beta: opt.BetaFloat}})
	}
	checks = append(checks, check{"n=3 δ=1", "PY91 conjectured",
		engine.Instance{N: py91.Players, Delta: py91.Capacity}, engine.PY91Rule{Protocol: py91.ConjecturedOptimal()}})

	for _, c := range checks {
		exact, err := eng.Evaluate(c.inst, c.rule, engine.Exact)
		if err != nil {
			return Table{}, err
		}
		mc, err := eng.EvaluateWithCtx(context.Background(), c.inst, c.rule, engine.MonteCarlo, p.Sim)
		if err != nil {
			return Table{}, err
		}
		z := math.Inf(1)
		if mc.StdErr > 0 {
			z = math.Abs(mc.P-exact.P) / mc.StdErr
		}
		t.Rows = append(t.Rows, []string{
			c.label, c.algo,
			fmt.Sprintf("%.6f", exact.P),
			fmt.Sprintf("%.6f", mc.P),
			fmt.Sprintf("%.6f", mc.StdErr),
			fmt.Sprintf("%.2f", z),
		})
	}
	return t, nil
}

// pieceString renders piece i of the optimal curve (negative i counts from
// the end).
func pieceString(res nonoblivious.OptimalResult, i int) string {
	if i < 0 {
		i += res.Curve.NumPieces()
	}
	p, _, err := res.Curve.Piece(i)
	if err != nil {
		return fmt.Sprintf("(error: %v)", err)
	}
	return p.String()
}

// normalizedCondition renders the optimality condition as a monic
// polynomial equation.
func normalizedCondition(res nonoblivious.OptimalResult) string {
	c := res.Condition
	if c.IsZero() {
		return "(endpoint optimum)"
	}
	lead := c.LeadingCoeff()
	if lead.Sign() != 0 {
		c = c.Scale(new(big.Rat).Inv(lead))
	}
	return c.String() + " = 0"
}
