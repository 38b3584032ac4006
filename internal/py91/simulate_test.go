package py91_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/py91"
	"repro/internal/sim"
)

// The Monte-Carlo cross-checks of the exact oracles run through the
// evaluation engine's PY91Rule, the one simulator for PY91 protocols.

func simulate(t *testing.T, p py91.Protocol, cfg sim.Config) engine.Result {
	t.Helper()
	inst := engine.Instance{N: py91.Players, Delta: py91.Capacity}
	res, err := engine.New(engine.Config{}).EvaluateWithCtx(context.Background(), inst, engine.PY91Rule{Protocol: p}, engine.MonteCarlo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != engine.MonteCarlo || res.Sim == nil || res.Sim.Trials != int64(cfg.Trials) {
		t.Fatalf("%s: result metadata %+v", p.Name(), res)
	}
	return res
}

func mustWeighted(t *testing.T, pattern py91.Pattern, theta0, theta1, theta2, w float64) *py91.WeightedAverageProtocol {
	t.Helper()
	p, err := py91.NewWeightedAverageProtocol(pattern, theta0, theta1, theta2, w)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExactMatchesSimulation(t *testing.T) {
	for i, p := range []*py91.WeightedAverageProtocol{
		mustWeighted(t, py91.OneWay, 0.62, 0.6, 0.64, 0.3),
		mustWeighted(t, py91.Broadcast, 0.55, 0.7, 0.7, 0.3),
		// Cuts clamp at 0 and at 1 inside (0, 1).
		mustWeighted(t, py91.Broadcast, 0.4, 0.9, 0.2, 0.7),
		mustWeighted(t, py91.OneWay, 0.8, 0.5, 0.3, 0.95),
		// Thresholds outside [0, 1].
		mustWeighted(t, py91.Broadcast, -0.5, 1.4, 0.6, 0.5),
		mustWeighted(t, py91.OneWay, 1.7, -0.2, 1.3, 0.4),
		mustWeighted(t, py91.Broadcast, 0.3, 1.2, -0.1, 0.85),
	} {
		want, err := p.ExactWinProbability()
		if err != nil {
			t.Fatal(err)
		}
		ev := simulate(t, p, sim.Config{Trials: 1_000_000, Seed: uint64(40 + i)})
		if math.Abs(ev.P-want) > 4*ev.StdErr {
			t.Errorf("%s: oracle %v, simulation %v ± %v", p.Name(), want, ev.P, ev.StdErr)
		}
	}
}

func TestExactFullInformationIsThreeQuarters(t *testing.T) {
	if got, err := (py91.FullInformationProtocol{}).ExactWinProbability(); err != nil || got != 0.75 {
		t.Errorf("full information = %v (%v), want 3/4", got, err)
	}
	ev := simulate(t, py91.FullInformationProtocol{}, sim.Config{Trials: 1_000_000, Seed: 3})
	if math.Abs(ev.P-0.75) > 4*ev.StdErr {
		t.Errorf("simulation %v ± %v, want 3/4", ev.P, ev.StdErr)
	}
}

func TestEvaluateThresholdAgainstExact(t *testing.T) {
	proto := py91.ConjecturedOptimal()
	exact, err := proto.ExactWinProbability()
	if err != nil {
		t.Fatal(err)
	}
	ev := simulate(t, proto, sim.Config{Trials: 400000, Seed: 5})
	if math.Abs(ev.P-exact) > 4*ev.StdErr {
		t.Errorf("simulated %v ± %v vs exact %v", ev.P, ev.StdErr, exact)
	}
}

// failingProtocol is a protocol whose every decision fails.
type failingProtocol struct{}

var errDecide = errors.New("decide failed")

func (failingProtocol) Name() string { return "failing" }
func (failingProtocol) Decide([py91.Players]float64) ([py91.Players]model.Bin, error) {
	return [py91.Players]model.Bin{}, errDecide
}

// TestEvaluateValidation checks the Monte-Carlo refusals: a nil protocol,
// an instance other than n = 3, δ = 1, a negative worker count, and a
// protocol whose decision fails.
func TestEvaluateValidation(t *testing.T) {
	e := engine.New(engine.Config{})
	inst := engine.Instance{N: py91.Players, Delta: py91.Capacity}
	cfg := sim.Config{Trials: 1000, Seed: 1}
	ctx := context.Background()
	if _, err := e.EvaluateWithCtx(ctx, inst, engine.PY91Rule{}, engine.MonteCarlo, cfg); err == nil {
		t.Error("nil protocol: expected error")
	}
	rule := engine.PY91Rule{Protocol: py91.ConjecturedOptimal()}
	if _, err := e.EvaluateWithCtx(ctx, engine.Instance{N: 4, Delta: 1}, rule, engine.MonteCarlo, cfg); err == nil {
		t.Error("n=4: expected error")
	}
	if _, err := e.EvaluateWithCtx(ctx, inst, rule, engine.MonteCarlo, sim.Config{Trials: 1000, Workers: -1}); err == nil {
		t.Error("negative workers: expected error")
	}
	_, err := e.EvaluateWithCtx(ctx, inst, engine.PY91Rule{Protocol: failingProtocol{}}, engine.MonteCarlo, cfg)
	if !errors.Is(err, errDecide) || !errors.Is(err, sim.ErrRuleFailed) {
		t.Errorf("failing protocol: err = %v, want %v wrapped as sim.ErrRuleFailed", err, errDecide)
	}
}

// TestSimulateAllocationRegression pins the Monte-Carlo allocation
// profile: per-run setup only, under 0.01 allocations per trial.
func TestSimulateAllocationRegression(t *testing.T) {
	inst := engine.Instance{N: py91.Players, Delta: py91.Capacity}
	rule := engine.PY91Rule{Protocol: py91.ConjecturedOptimal()}
	const trials = 50000
	cfg := sim.Config{Trials: trials, Workers: 1, Seed: 3}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := rule.Simulate(inst, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if perTrial := allocs / trials; perTrial >= 0.01 {
		t.Errorf("%v allocs per run (%v/trial), want < 0.01/trial", allocs, perTrial)
	}
}
