package harness

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/nonoblivious"
	"repro/internal/oblivious"
	"repro/internal/optimize"
	"repro/internal/plot"
	"repro/internal/problem"
	"repro/internal/py91"
	"repro/internal/response"
	"repro/internal/sim"
)

// Figure3 is an extension experiment (F3): the crossover chart behind the
// reproduction findings. For a fixed n it sweeps the capacity δ and plots
// the three algorithm classes — the optimal symmetric threshold P*(δ),
// the oblivious 1/2-coin, and the deterministic balanced split — exposing
// where knowledge of the input wins and where it does not (at n = 4 the
// coin overtakes the threshold optimum around δ ≈ 4/3, the paper's own
// operating point).
func Figure3(n int, p Params) (Figure, error) {
	if n < 2 {
		return Figure{}, fmt.Errorf("harness: need at least 2 players, got %d", n)
	}
	if p.Points < 2 {
		return Figure{}, fmt.Errorf("harness: figure needs at least 2 points, got %d", p.Points)
	}
	fig := Figure{
		ID:     "F3",
		Title:  fmt.Sprintf("Algorithm classes vs capacity δ (n=%d, extension)", n),
		XLabel: "capacity δ",
		YLabel: "P(win)",
	}
	threshold := plot.Series{Name: "optimal threshold"}
	coin := plot.Series{Name: "oblivious 1/2"}
	split := plot.Series{Name: "balanced split"}
	// Sweep δ over [n/6, n/2] on a rational grid so the symbolic pipeline
	// stays exact.
	const denom = 24
	lo := n * denom / 6
	hi := n * denom / 2
	step := (hi - lo) / (p.Points - 1)
	if step < 1 {
		step = 1
	}
	// The two optimizer series walk the grid directly; the coin series is
	// a varying-instance engine sweep (one rule, many δ).
	var coinPoints []engine.Point
	for num := lo; num <= hi; num += step {
		delta := big.NewRat(int64(num), denom)
		df, _ := delta.Float64()
		opt, err := nonoblivious.OptimalSymmetric(n, delta)
		if err != nil {
			return Figure{}, err
		}
		det, err := oblivious.OptimalDeterministic(n, df)
		if err != nil {
			return Figure{}, err
		}
		coinPoints = append(coinPoints, engine.Point{
			Instance: engine.Instance{N: n, Delta: df},
			Rule:     engine.SymmetricOblivious{A: 0.5},
		})
		threshold.X = append(threshold.X, df)
		threshold.Y = append(threshold.Y, opt.WinProbabilityFloat)
		coin.X = append(coin.X, df)
		split.X = append(split.X, df)
		split.Y = append(split.Y, det.WinProbability)
	}
	coinRes, err := p.engine().Sweep(context.Background(), coinPoints, engine.SweepOptions{
		Backend: p.Backend, Workers: p.Sim.Workers, Sim: p.Sim,
	})
	if err != nil {
		return Figure{}, err
	}
	for _, r := range coinRes {
		coin.Y = append(coin.Y, r.P)
	}
	fig.Series = []plot.Series{threshold, coin, split}
	return fig, nil
}

// TableValueOfInformation is an extension experiment (T5): the PY91
// communication ladder for the three-player, δ=1 instance. Each row adds
// information and (weakly) winning probability, quantifying the "value of
// information" the 1991 paper introduced and this paper's no-communication
// analysis anchors.
func TableValueOfInformation(p Params) (Table, error) {
	t := Table{
		ID:      "T5",
		Title:   "Value of information (PY91 ladder, n=3, δ=1; extension)",
		Columns: []string{"pattern", "protocol", "P(win)", "std err", "source"},
	}
	cfg := p.Sim
	pcfg := py91.SimConfig{Trials: cfg.Trials, Workers: cfg.Workers, Seed: cfg.Seed}
	py91Inst := engine.Instance{N: py91.Players, Delta: py91.Capacity}

	// Rung 0: no communication, proven optimal threshold (exact, through
	// the engine).
	none := py91.ConjecturedOptimal()
	exactRes, err := p.engine().Evaluate(py91Inst, engine.PY91Rule{Protocol: none}, engine.Exact)
	if err != nil {
		return Table{}, err
	}
	exact := exactRes.P
	t.Rows = append(t.Rows, []string{
		py91.NoCommunication.String(), none.Name(),
		fmt.Sprintf("%.6f", exact), "0 (exact)", "Theorem 5.1 + §5.2.1",
	})

	// Rung 0.5: a single broadcast bit, evaluated exactly through the
	// Section 6 generalization (package comm) and tuned by Nelder-Mead.
	oneBit, err := comm.Optimize(3, 1, py91.ConjecturedOptimalThreshold)
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, []string{
		"one bit", fmt.Sprintf("cut=%.3f θ=%.3f β=%.3f/%.3f",
			oneBit.Protocol.Cut, oneBit.Protocol.SenderTheta,
			oneBit.Protocol.BetaLow, oneBit.Protocol.BetaHigh),
		fmt.Sprintf("%.6f", oneBit.WinProbability), "0 (exact)", "comm.OneBitBroadcast, tuned",
	})

	// Rung 1: one-way communication. Two families: the PY91
	// weighted-average shape (simulated) and the exact one-bit-to-one
	// protocol, whose freed third player makes it surprisingly strong.
	oneWay, evOne, err := py91.OptimizeWeighted(py91.OneWay, pcfg)
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, []string{
		py91.OneWay.String(), oneWay.Name(),
		fmt.Sprintf("%.6f", evOne.P), fmt.Sprintf("%.6f", evOne.StdErr), "simulated, tuned",
	})
	owBit, owVal, err := comm.OptimizeOneWay(3, 1, py91.ConjecturedOptimalThreshold)
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, []string{
		"one-way bit", fmt.Sprintf("cut=%.3f θ=%.3f β₁=%.3f/%.3f β₂=%.3f",
			owBit.Cut, owBit.SenderTheta, owBit.BetaLow, owBit.BetaHigh, owBit.Beta),
		fmt.Sprintf("%.6f", owVal), "0 (exact)", "comm.OneBitToOne, tuned",
	})

	// Rung 2: broadcast.
	bc, evBC, err := py91.OptimizeWeighted(py91.Broadcast, pcfg)
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, []string{
		py91.Broadcast.String(), bc.Name(),
		fmt.Sprintf("%.6f", evBC.P), fmt.Sprintf("%.6f", evBC.StdErr), "simulated, tuned",
	})

	// Rung 3: full information (the feasibility bound, exactly 3/4),
	// simulated through the engine's py91 Monte-Carlo backend.
	evFull, err := p.engine().EvaluateWithCtx(context.Background(), py91Inst,
		engine.PY91Rule{Protocol: py91.FullInformationProtocol{}}, engine.MonteCarlo, cfg)
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, []string{
		py91.Full.String(), "full-information",
		fmt.Sprintf("%.6f", evFull.P), fmt.Sprintf("%.6f", evFull.StdErr), "simulated (exact value 3/4)",
	})
	t.Notes = append(t.Notes,
		"Tuned protocols use the PY91 weighted-average shape; their values are lower bounds on the pattern optimum.",
	)
	return t, nil
}

// TableAsymptotics is an extension experiment (T7): how the optimal
// winning probabilities scale with n under the paper's δ = n/3 capacity
// scaling, up to the float64 stability limit. The threshold and oblivious
// columns use the exact O(n²) formulas with numeric maximization; the
// feasibility column is simulated where the 2^n check is affordable.
// As n grows the total load concentrates around n/2 < 2δ, so the
// omniscient bound tends to 1; the table quantifies how much of that the
// no-communication algorithm classes capture.
func TableAsymptotics(ns []int, p Params) (Table, error) {
	if len(ns) == 0 {
		return Table{}, fmt.Errorf("harness: empty instance list")
	}
	cfg := p.Sim
	eng := p.engine()
	t := Table{
		ID:      "T7",
		Title:   "Scaling with n at δ = n/3 (extension)",
		Columns: []string{"n", "β* (numeric)", "P* threshold", "oblivious α=1/2", "balanced split", "feasibility (sim)"},
	}
	for _, n := range ns {
		delta := float64(n) / 3
		betaStar, pStar, err := numericThresholdOptimum(n, delta)
		if err != nil {
			return Table{}, err
		}
		obl, err := eng.Evaluate(engine.Instance{N: n, Delta: delta}, engine.SymmetricOblivious{A: 0.5}, engine.Exact)
		if err != nil {
			return Table{}, err
		}
		det, err := oblivious.OptimalDeterministic(n, delta)
		if err != nil {
			return Table{}, err
		}
		feas := "-"
		if n <= 14 && cfg.Trials > 0 {
			trials := cfg.Trials
			if trials > 100_000 {
				trials = 100_000
			}
			res, err := sim.FeasibilityProbability(problem.Instance{N: n, Delta: delta}, sim.Config{
				Trials: trials, Workers: cfg.Workers, Seed: cfg.Seed,
			})
			if err != nil {
				return Table{}, err
			}
			feas = fmt.Sprintf("%.4f", res.P)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.6f", betaStar),
			fmt.Sprintf("%.6f", pStar),
			fmt.Sprintf("%.6f", obl.P),
			fmt.Sprintf("%.6f", det.WinProbability),
			feas,
		})
	}
	t.Notes = append(t.Notes,
		"All classes approach the omniscient bound as n grows: concentration makes δ = n/3 easy at scale.",
	)
	return t, nil
}

// numericThresholdOptimum maximizes the symmetric-threshold curve with the
// float fast path (grid + golden-section), for instance sizes beyond the
// symbolic pipeline's comfort zone.
func numericThresholdOptimum(n int, delta float64) (beta, p float64, err error) {
	res, err := optimize.GridThenGoldenMax(nil, func(b float64) float64 {
		v, err := nonoblivious.SymmetricWinningProbability(n, delta, b)
		if err != nil {
			return -1
		}
		return v
	}, 0, 1, 401, 1e-10)
	if err != nil {
		return 0, 0, err
	}
	return res.X, res.Value, nil
}

// TableOneBitValue is an extension experiment (T8): the exact value of a
// single broadcast bit across instance sizes with δ = n/3 — the simplest
// instantiation of the paper's Section 6 program ("general communication
// patterns ... can all be treated in our combinatorial framework"). For
// each n the one-bit protocol is tuned over (cut, sender threshold,
// conditional listener thresholds) against the no-communication optimum.
func TableOneBitValue(ns []int) (Table, error) {
	if len(ns) == 0 {
		return Table{}, fmt.Errorf("harness: empty instance list")
	}
	t := Table{
		ID:      "T8",
		Title:   "Value of one broadcast bit (δ = n/3; extension)",
		Columns: []string{"n", "δ", "no-comm P*", "one-bit P*", "gain", "tuned protocol"},
	}
	for _, n := range ns {
		capacity := big.NewRat(int64(n), 3)
		noComm, err := nonoblivious.OptimalSymmetric(n, capacity)
		if err != nil {
			return Table{}, err
		}
		cf, _ := capacity.Float64()
		oneBit, err := comm.Optimize(n, cf, noComm.BetaFloat)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			capacity.RatString(),
			fmt.Sprintf("%.6f", noComm.WinProbabilityFloat),
			fmt.Sprintf("%.6f", oneBit.WinProbability),
			fmt.Sprintf("%+.6f", oneBit.WinProbability-noComm.WinProbabilityFloat),
			fmt.Sprintf("cut=%.3f θ=%.3f β=%.3f/%.3f",
				oneBit.Protocol.Cut, oneBit.Protocol.SenderTheta,
				oneBit.Protocol.BetaLow, oneBit.Protocol.BetaHigh),
		})
	}
	t.Notes = append(t.Notes,
		"One-bit values are exact (conditioned interval-pair evaluation); tuning is numeric, so gains are lower bounds.",
	)
	return t, nil
}

// TableNonUniformInputs is an extension experiment (T9): the paper's
// third future-work axis ("more realistic assumptions on the distribution
// of inputs"), quantified. For piecewise-constant input densities of
// varying skew, the best threshold on a 1/64 grid is derived exactly and
// compared with the uniform-case optimum β = 0.622 (n = 3, δ = 1).
func TableNonUniformInputs() (Table, error) {
	t := Table{
		ID:      "T9",
		Title:   "Non-uniform input distributions (n=3, δ=1; extension)",
		Columns: []string{"density (low half : high half)", "best β (1/64 grid)", "P at best β", "P at uniform-case β*"},
	}
	one := big.NewRat(1, 1)
	cases := []struct {
		label     string
		lowHeight *big.Rat
	}{
		{"1 : 1 (uniform)", big.NewRat(1, 1)},
		{"3 : 1 (small-skewed)", big.NewRat(3, 2)},
		{"1 : 3 (large-skewed)", big.NewRat(1, 2)},
		{"7 : 1 (strongly small)", big.NewRat(7, 4)},
	}
	uniformBeta := big.NewRat(40, 64) // ≈ 0.625, the grid point nearest 0.622
	for _, c := range cases {
		highHeight := new(big.Rat).Sub(big.NewRat(2, 1), c.lowHeight)
		density, err := response.NewPiecewiseDensity(
			[]*big.Rat{new(big.Rat), big.NewRat(1, 2), one},
			[]*big.Rat{c.lowHeight, highHeight},
		)
		if err != nil {
			return Table{}, err
		}
		bestBeta := new(big.Rat)
		bestP := new(big.Rat).SetInt64(-1)
		var uniP *big.Rat
		for num := int64(0); num <= 64; num++ {
			beta := big.NewRat(num, 64)
			set, err := response.NewRatIntervalSet([]response.RatInterval{{Lo: new(big.Rat), Hi: beta}})
			if err != nil {
				return Table{}, err
			}
			p, err := response.ExactWinProbabilityDist(3, one, set, density)
			if err != nil {
				return Table{}, err
			}
			if p.Cmp(bestP) > 0 {
				bestP = p
				bestBeta = beta
			}
			if beta.Cmp(uniformBeta) == 0 {
				uniP = p
			}
		}
		bb, _ := bestBeta.Float64()
		bp, _ := bestP.Float64()
		up, _ := uniP.Float64()
		t.Rows = append(t.Rows, []string{
			c.label,
			fmt.Sprintf("%.4f", bb),
			fmt.Sprintf("%.6f", bp),
			fmt.Sprintf("%.6f", up),
		})
	}
	t.Notes = append(t.Notes,
		"Two-piece densities: height h on [0,1/2] and 2-h on [1/2,1]; all values exact rationals.",
		"Skewing inputs small raises P* and pulls β* down; the uniform-case threshold is suboptimal under skew.",
	)
	return t, nil
}

// TableBeyondThresholds is an extension experiment (T6): it searches the
// two-interval family of deterministic decision rules — the smallest
// family strictly containing the paper's single thresholds — for each
// instance and reports whether leaving the single-threshold family helps.
// The headline reproduction finding: at n=4, δ=4/3 a middle-band rule
// beats both the optimal threshold AND the oblivious coin.
func TableBeyondThresholds(grid int) (Table, error) {
	if grid <= 0 {
		grid = 512
	}
	t := Table{
		ID:      "T6",
		Title:   "Beyond single thresholds: two-interval rules (extension)",
		Columns: []string{"n", "δ", "threshold P*", "two-interval P*", "best bin-0 region", "improvement"},
	}
	cases := []struct {
		n        int
		capacity *big.Rat
	}{
		{3, big.NewRat(1, 1)},
		{4, big.NewRat(4, 3)},
		{5, big.NewRat(5, 3)},
	}
	for _, c := range cases {
		cf, _ := c.capacity.Float64()
		exactOpt, err := nonoblivious.OptimalSymmetric(c.n, c.capacity)
		if err != nil {
			return Table{}, err
		}
		ev, err := response.NewEvaluator(c.n, cf, grid)
		if err != nil {
			return Table{}, err
		}
		double, err := ev.OptimizeTwoInterval()
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c.n),
			c.capacity.RatString(),
			fmt.Sprintf("%.6f", exactOpt.WinProbabilityFloat),
			fmt.Sprintf("%.6f", double.WinProbability),
			double.Set.String(),
			fmt.Sprintf("%+.6f", double.WinProbability-exactOpt.WinProbabilityFloat),
		})
	}
	t.Notes = append(t.Notes,
		"Two-interval values come from the grid-convolution oracle (O(1/grid²) accuracy) and are simulation-verified in tests.",
		"n=3: the search collapses back to [0, 0.622] — the paper's single-threshold restriction is lossless there.",
		"n=4: the middle band beats the threshold optimum AND the oblivious coin; single thresholds are not optimal in the full §3 model.",
	)
	return t, nil
}
