package sim

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/problem"
)

// TestObservedRunMatchesPlainRun pins the key invariant of the
// instrumentation: enabling observability must not change the simulation's
// random streams or its result.
func TestObservedRunMatchesPlainRun(t *testing.T) {
	sys := thresholdSystem(t, 3, 0.622, 1)
	plain, err := WinProbability(sys, Config{Trials: 20000, Workers: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	o := obs.New(obs.NewRegistry(), obs.NewSink(&buf))
	observed, err := WinProbability(sys, Config{Trials: 20000, Workers: 4, Seed: 7, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if plain != observed {
		t.Errorf("observability changed the result: plain %+v, observed %+v", plain, observed)
	}
	if got := o.Counter("sim.trials").Value(); got != 20000 {
		t.Errorf("sim.trials = %d, want 20000", got)
	}
	if got := o.Counter("sim.wins").Value(); got != observed.Wins {
		t.Errorf("sim.wins = %d, want %d", got, observed.Wins)
	}
	// Every trial draws its 3 inputs and nothing else (threshold rules flip
	// no coins).
	if got := o.Counter("sim.rng_draws").Value(); got != 3*20000 {
		t.Errorf("sim.rng_draws = %d, want 60000", got)
	}
	// An oblivious player adds one coin per trial: trials × (n + coins).
	coinSys := qmcSystem(t)
	coinCfg := Config{Trials: 20000, Workers: 2, Seed: 7}
	plainCoin, err := WinProbability(coinSys, coinCfg)
	if err != nil {
		t.Fatal(err)
	}
	co := obs.New(obs.NewRegistry(), nil)
	coinCfg.Obs = co
	observedCoin, err := WinProbability(coinSys, coinCfg)
	if err != nil {
		t.Fatal(err)
	}
	if plainCoin != observedCoin {
		t.Errorf("observability changed the coin-system result: plain %+v, observed %+v", plainCoin, observedCoin)
	}
	if got := co.Counter("sim.rng_draws").Value(); got != (3+1)*20000 {
		t.Errorf("coin system sim.rng_draws = %d, want 80000", got)
	}
	// The same invariant on the other merged paths: a plain one-worker
	// batch run against an observed one, feasibility trials, and the
	// per-trial path (rules hidden from the batch kernel) with and without
	// an observer.
	one := Config{Trials: 20000, Workers: 1, Seed: 7}
	plainOne, err := WinProbability(sys, one)
	if err != nil {
		t.Fatal(err)
	}
	one.Obs = obs.New(obs.NewRegistry(), nil)
	observedOne, err := WinProbability(sys, one)
	if err != nil {
		t.Fatal(err)
	}
	if plainOne != observedOne {
		t.Errorf("observability changed the one-worker result: plain %+v, observed %+v", plainOne, observedOne)
	}
	inst := problem.Instance{N: 3, Delta: 1}
	feasCfg := Config{Trials: 20000, Workers: 3, Seed: 7}
	plainFeas, err := FeasibilityProbability(inst, feasCfg)
	if err != nil {
		t.Fatal(err)
	}
	fo := obs.New(obs.NewRegistry(), nil)
	feasCfg.Obs = fo
	observedFeas, err := FeasibilityProbability(inst, feasCfg)
	if err != nil {
		t.Fatal(err)
	}
	if plainFeas != observedFeas {
		t.Errorf("observability changed the feasibility result: plain %+v, observed %+v", plainFeas, observedFeas)
	}
	if got := fo.Counter("sim.trials").Value(); got != 20000 {
		t.Errorf("feasibility sim.trials = %d, want 20000", got)
	}
	perTrialSys := unbatch(t, sys)
	ptCfg := Config{Trials: 20000, Workers: 3, Seed: 7}
	plainPT, err := WinProbability(perTrialSys, ptCfg)
	if err != nil {
		t.Fatal(err)
	}
	po := obs.New(obs.NewRegistry(), nil)
	ptCfg.Obs = po
	observedPT, err := WinProbability(perTrialSys, ptCfg)
	if err != nil {
		t.Fatal(err)
	}
	if plainPT != observedPT {
		t.Errorf("observability changed the per-trial result: plain %+v, observed %+v", plainPT, observedPT)
	}
	if got := po.Counter("sim.trials").Value(); got != 20000 {
		t.Errorf("per-trial path sim.trials = %d, want 20000", got)
	}

	snap := o.Metrics.Snapshot()
	throughput := 0
	for name, v := range snap.Gauges {
		var w int
		if _, err := fmt.Sscanf(name, "sim.worker.%d.trials_per_sec", &w); err == nil && v > 0 {
			throughput++
		}
	}
	if throughput != 4 {
		t.Errorf("throughput gauges for %d workers, want 4 (gauges: %v)", throughput, snap.Gauges)
	}
}

// TestConvergenceTrace checks the checkpoint stream: cadence, monotone
// trial counts, and CI bounds that bracket the estimate.
func TestConvergenceTrace(t *testing.T) {
	sys := thresholdSystem(t, 3, 0.622, 1)
	var buf bytes.Buffer
	o := obs.New(obs.NewRegistry(), obs.NewSink(&buf))
	res, err := WinProbability(sys, Config{Trials: 10000, Workers: 2, Seed: 3, Obs: o, CheckpointEvery: 500})
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sum := obs.Summarize(events)
	if len(sum.Checkpoints) != 1 {
		t.Fatalf("checkpoint streams = %d, want 1", len(sum.Checkpoints))
	}
	pts := sum.Checkpoints[0].Points
	if len(pts) != 20 {
		t.Fatalf("checkpoints = %d, want 20 (10000 trials / every 500)", len(pts))
	}
	prev := 0.0
	for i, p := range pts {
		tr := p.Attrs["trials"]
		if tr <= prev {
			t.Errorf("checkpoint %d: trials %v not increasing past %v", i, tr, prev)
		}
		prev = tr
		est, lo, hi := p.Attrs["estimate"], p.Attrs["ci_lo"], p.Attrs["ci_hi"]
		if !(lo <= est && est <= hi) {
			t.Errorf("checkpoint %d: CI [%v, %v] does not bracket estimate %v", i, lo, hi, est)
		}
	}
	last := pts[len(pts)-1]
	if int64(last.Attrs["trials"]) != res.Trials {
		t.Errorf("final checkpoint at %v trials, want %d", last.Attrs["trials"], res.Trials)
	}
	// Span nesting: one root sim span, one child per worker.
	roots, workers := 0, 0
	for _, s := range sum.Spans {
		switch {
		case s.Name == "sim.win_probability" && s.Depth == 0:
			roots++
		case s.Depth == 1:
			workers += int(s.Count)
		}
	}
	if roots != 1 {
		t.Errorf("root sim spans = %d, want 1", roots)
	}
	if workers != 2 {
		t.Errorf("worker spans = %d, want 2", workers)
	}
	if sum.OpenSpans != 0 {
		t.Errorf("open spans = %d, want 0", sum.OpenSpans)
	}
}
