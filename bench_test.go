package repro

// One benchmark per table and figure of the paper's evaluation (see the
// per-experiment index in DESIGN.md), plus micro-benchmarks for the
// formula kernels. Each experiment benchmark regenerates its artifact
// end-to-end, so `go test -bench .` both times the pipeline and re-derives
// every reported number; the b.Log output of a single run records the
// headline values.

import (
	"fmt"
	"io"
	"math/big"
	"math/rand/v2"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/nonoblivious"
	"repro/internal/oblivious"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/qrand"
	"repro/internal/response"
	"repro/internal/sim"
)

// BenchmarkFigure1 regenerates Figure 1 (non-oblivious threshold sweep,
// n = 3, 4, 5, δ = n/3).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.Figure1(harness.Params{Points: 201})
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) != 3 {
			b.Fatalf("unexpected series count %d", len(fig.Series))
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2 (oblivious coin sweep, n = 3, 4,
// 5, δ = n/3).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.Figure2(harness.Params{Points: 201})
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) != 3 {
			b.Fatalf("unexpected series count %d", len(fig.Series))
		}
	}
}

// BenchmarkFigure3Crossover regenerates the F3 extension figure (algorithm
// classes vs capacity at n = 4).
func BenchmarkFigure3Crossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.Figure3(4, harness.Params{Points: 25})
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) != 3 {
			b.Fatalf("unexpected series count %d", len(fig.Series))
		}
	}
}

// BenchmarkTable5ValueOfInformation regenerates the T5 extension table
// (PY91 communication ladder, simulated + tuned).
func BenchmarkTable5ValueOfInformation(b *testing.B) {
	p := harness.Params{Sim: sim.Config{Trials: 30_000, Seed: 1}}
	for i := 0; i < b.N; i++ {
		if _, err := harness.TableValueOfInformation(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6BeyondThresholds regenerates the T6 extension table
// (two-interval rule search).
func BenchmarkTable6BeyondThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.TableBeyondThresholds(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable7Asymptotics regenerates the T7 extension table (scaling
// with n at δ = n/3).
func BenchmarkTable7Asymptotics(b *testing.B) {
	p := harness.Params{Sim: sim.Config{Trials: 20_000, Seed: 1}}
	for i := 0; i < b.N; i++ {
		if _, err := harness.TableAsymptotics([]int{2, 4, 8, 12, 16, 20, 24}, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Oblivious regenerates T1 (Theorem 4.3 optima for
// n = 2..10).
func BenchmarkTable1Oblivious(b *testing.B) {
	ns := []int{2, 3, 4, 5, 6, 7, 8, 9, 10}
	for i := 0; i < b.N; i++ {
		if _, err := harness.TableOblivious(ns, harness.Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2CaseN3 regenerates T2 (Section 5.2.1: exact piecewise
// polynomial, optimality condition and optimum for n=3, δ=1).
func BenchmarkTable2CaseN3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.TableCaseN3(); err != nil {
			b.Fatal(err)
		}
	}
	res, err := nonoblivious.OptimalSymmetric(3, big.NewRat(1, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("T2: β* = %.9f, P* = %.9f", res.BetaFloat, res.WinProbabilityFloat)
}

// BenchmarkTable3CaseN4 regenerates T3 (Section 5.2.2: n=4, δ=4/3).
func BenchmarkTable3CaseN4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.TableCaseN4(); err != nil {
			b.Fatal(err)
		}
	}
	res, err := nonoblivious.OptimalSymmetric(4, big.NewRat(4, 3))
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("T3: β* = %.9f, P* = %.9f", res.BetaFloat, res.WinProbabilityFloat)
}

// BenchmarkTable4Tradeoff regenerates T4 (knowledge/uniformity trade-off,
// simulated feasibility column included).
func BenchmarkTable4Tradeoff(b *testing.B) {
	p := harness.Params{Sim: sim.Config{Trials: 100_000, Seed: 1}}
	for i := 0; i < b.N; i++ {
		if _, err := harness.TableTradeoff([]int{2, 3, 4, 5, 6}, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidationSweep regenerates V1 (every formula vs Monte-Carlo).
func BenchmarkValidationSweep(b *testing.B) {
	p := harness.Params{Sim: sim.Config{Trials: 100_000, Seed: 1}}
	for i := 0; i < b.N; i++ {
		if _, err := harness.TableValidation(p); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- kernel micro-benchmarks ----

// BenchmarkIrwinHallCDF times the Corollary 2.6 ladder: F_m(4.2) for
// every order m ≤ 10 from one ladder.
func BenchmarkIrwinHallCDF(b *testing.B) {
	var l dist.IrwinHallLadder
	for i := 0; i < b.N; i++ {
		l.Reset(4.2, 10)
		for l.Order() < 10 {
			l.Step()
		}
	}
}

// BenchmarkUniformSumCDF times the Lemma 2.4 subset kernel (m = 12,
// 4096 subsets per call).
func BenchmarkUniformSumCDF(b *testing.B) {
	widths := make([]float64, 12)
	for i := range widths {
		widths[i] = 0.3 + 0.05*float64(i)
	}
	u, err := dist.NewUniformSum(widths)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = u.CDF(2.5)
	}
}

// BenchmarkObliviousWinProbability times the Theorem 4.1 evaluation for
// n = 20 (Poisson-binomial DP path).
func BenchmarkObliviousWinProbability(b *testing.B) {
	alphas := make([]float64, 20)
	for i := range alphas {
		alphas[i] = 0.3 + 0.02*float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oblivious.WinningProbability(alphas, 20.0/3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThresholdWinProbabilityGeneral times the Theorem 5.1 evaluation
// for a general 10-player threshold vector (Θ(3^n) subset path).
func BenchmarkThresholdWinProbabilityGeneral(b *testing.B) {
	ths := make([]float64, 10)
	for i := range ths {
		ths[i] = 0.4 + 0.03*float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nonoblivious.WinningProbability(ths, 10.0/3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThresholdWinProbabilitySymmetric times the symmetric fast path
// (Irwin-Hall ladders, O(n³)) at δ = n/3 from n = 3 to its cap.
func BenchmarkThresholdWinProbabilitySymmetric(b *testing.B) {
	for _, n := range []int{3, 10, 20, 25, nonoblivious.MaxNSymmetric} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := nonoblivious.SymmetricWinningProbability(n, float64(n)/3, 0.63); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSymbolicDerivation times the full exact Section 5.2 pipeline
// (piecewise polynomial + Sturm optimum) at n = 6, δ = 2.
func BenchmarkSymbolicDerivation(b *testing.B) {
	delta := big.NewRat(2, 1)
	for i := 0; i < b.N; i++ {
		if _, err := nonoblivious.OptimalSymmetric(6, delta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResponseOracle times the float64 winning probability of a
// band rule at n = 4.
func BenchmarkResponseOracle(b *testing.B) {
	ev, err := response.NewEvaluator(4, 4.0/3)
	if err != nil {
		b.Fatal(err)
	}
	band, err := response.NewIntervalSet([]response.Interval{{Lo: 0.327, Hi: 0.742}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.WinProbability(band); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResponseExactRational times the exact rational interval-set
// evaluation of the same band rule.
func BenchmarkResponseExactRational(b *testing.B) {
	band, err := response.NewRatIntervalSet([]response.RatInterval{
		{Lo: big.NewRat(327, 1000), Hi: big.NewRat(742, 1000)},
	})
	if err != nil {
		b.Fatal(err)
	}
	capacity := big.NewRat(4, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := response.ExactWinProbability(4, capacity, band); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResponseVector times the asymmetric per-player interval
// evaluation at n = 6.
func BenchmarkResponseVector(b *testing.B) {
	sets := make([]response.IntervalSet, 6)
	for i := range sets {
		lo := 0.2 + 0.05*float64(i)
		s, err := response.NewIntervalSet([]response.Interval{{Lo: lo, Hi: lo + 0.4}})
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := response.WinProbabilityVector(sets, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOneBitBroadcast times the exact evaluation of the one-bit
// communication protocol at n = 5.
func BenchmarkOneBitBroadcast(b *testing.B) {
	p := comm.OneBitBroadcast{N: 5, Cut: 0.55, SenderTheta: 0.55, BetaLow: 0.55, BetaHigh: 1}
	for i := 0; i < b.N; i++ {
		if _, err := p.WinProbability(5.0 / 3); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- observability overhead ----

// The three benchmarks below isolate what the telemetry layer costs the
// simulate hot loop. Baseline hand-rolls the pre-batching per-trial loop
// (sample, play, count — no obs branch anywhere); Instrumented runs the
// production sim.WinProbability with a nil observer, which since the
// batched kernel landed runs well *under* Baseline (it skips the
// per-trial allocations and interface dispatch Baseline still pays);
// Observed turns the full telemetry on (spans, counters, convergence
// checkpoints into a discarded sink) to document the cost of opting in —
// the contract is that Observed stays within a few percent of
// Instrumented, since win flags are replayed per trial from the batch
// buffer rather than re-simulated. All three use one worker and identical
// PCG streams so ns/op is comparable.

const obsBenchTrials = 100_000

// obsBenchWins defeats dead-code elimination of the baseline loop.
var obsBenchWins int64

// obsBenchSystem builds the n=3, δ=1 symmetric-threshold system at the
// paper's optimum, the same workload as BenchmarkSimulation.
func obsBenchSystem(b *testing.B) *model.System {
	b.Helper()
	rule, err := model.NewThresholdRule(0.622)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := model.UniformSystem(3, rule, 1)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkWinProbabilityBaseline replicates the engine's single-worker
// hot loop with no observability code in scope at all.
func BenchmarkWinProbabilityBaseline(b *testing.B) {
	sys := obsBenchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Same SplitMix stream separation as Config.workerSource(0).
		s := uint64(i+1) + 0x9e3779b97f4a7c15
		s ^= s >> 30
		s *= 0xbf58476d1ce4e5b9
		rng := rand.New(rand.NewPCG(s, s^0x94d049bb133111eb))
		var wins int64
		for t := 0; t < obsBenchTrials; t++ {
			inputs, err := sys.SampleInputs(rng)
			if err != nil {
				b.Fatal(err)
			}
			out, err := sys.Play(inputs, rng)
			if err != nil {
				b.Fatal(err)
			}
			if out.Win {
				wins++
			}
		}
		obsBenchWins = wins
	}
}

// BenchmarkWinProbabilityInstrumented runs the production engine with a
// nil observer — the default for every caller that does not pass -obs.
// Compare against BenchmarkWinProbabilityBaseline to see what the batched
// kernel buys over the per-trial loop on the same workload.
func BenchmarkWinProbabilityInstrumented(b *testing.B) {
	sys := obsBenchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{Trials: obsBenchTrials, Workers: 1, Seed: uint64(i + 1)}
		if _, err := sim.WinProbability(sys, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWinProbabilityObserved times the same run with telemetry fully
// on (registry + JSONL sink into io.Discard), documenting what -obs costs.
func BenchmarkWinProbabilityObserved(b *testing.B) {
	sys := obsBenchSystem(b)
	o := obs.New(obs.NewRegistry(), obs.NewSink(io.Discard))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{Trials: obsBenchTrials, Workers: 1, Seed: uint64(i + 1), Obs: o}
		if _, err := sim.WinProbability(sys, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulation times the Monte-Carlo engine at 100k rounds of the
// n=3 optimum.
func BenchmarkSimulation(b *testing.B) {
	sys, err := engine.SymmetricThreshold{Beta: 0.622}.System(problem.Instance{N: 3, Delta: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.WinProbability(sys, sim.Config{Trials: 100_000, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- batch kernel ----

// noBatchRule hides the BatchRule implementation of a rule, forcing
// sim.WinProbability onto the per-trial fallback path.
type noBatchRule struct{ r model.LocalRule }

func (nb noBatchRule) Decide(x float64, rng *rand.Rand) (model.Bin, error) {
	return nb.r.Decide(x, rng)
}

// BenchmarkBatchKernel times the batch kernel's fast pseudo-random entry
// (Play over the worker PCG, the path sim.WinProbability runs) — the
// allocation-free inner loop of the Monte-Carlo engine — in trials/op.
func BenchmarkBatchKernel(b *testing.B) {
	sys := obsBenchSystem(b)
	k, ok := model.NewBatchKernel(sys)
	if !ok {
		b.Fatal("threshold system should be batchable")
	}
	sc := model.GetBatchScratch()
	defer sc.Release()
	src := rand.NewPCG(1, 2)
	const batch = 256
	k.Play(sc, src, batch) // warm the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		k.Play(sc, src, batch)
	}
}

// BenchmarkBatchKernelQMC times the quasi-Monte-Carlo entry on the same
// system: Sobol lane fills instead of PCG draws, in trials/op.
func BenchmarkBatchKernelQMC(b *testing.B) {
	sys := obsBenchSystem(b)
	k, ok := model.NewBatchKernel(sys)
	if !ok {
		b.Fatal("threshold system should be batchable")
	}
	seq, err := qrand.New(k.Dims(), 1)
	if err != nil {
		b.Fatal(err)
	}
	sc := model.GetBatchScratch()
	defer sc.Release()
	const batch = 256
	k.PlayQMC(sc, seq, 0, batch) // warm the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		k.PlayQMC(sc, seq, uint64(i), batch)
	}
}

// BenchmarkWinProbabilityFallback times the per-trial fallback path on the
// BenchmarkSimulation workload (rules wrapped to hide BatchRule), keeping
// the cost of non-batchable rules visible next to the batched numbers.
func BenchmarkWinProbabilityFallback(b *testing.B) {
	rule, err := model.NewThresholdRule(0.622)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := model.NewSystem([]model.LocalRule{
		noBatchRule{rule}, noBatchRule{rule}, noBatchRule{rule},
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, ok := model.NewBatchKernel(sys); ok {
		b.Fatal("wrapped system must not be batchable")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{Trials: obsBenchTrials, Workers: 1, Seed: uint64(i + 1)}
		if _, err := sim.WinProbability(sys, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
