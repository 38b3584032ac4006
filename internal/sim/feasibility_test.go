package sim

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/problem"
)

// perTrialFeasibility is the reference feasibility trial: inputs drawn
// through *rand.Rand (scaled by π_i when set), then the validating
// model.FeasibleAssignmentExists. Bernoulli shares one trial across its
// workers, so the input buffer is per call.
func perTrialFeasibility(inst problem.Instance) func(*rand.Rand) (bool, error) {
	widths := inst.Widths()
	return func(rng *rand.Rand) (bool, error) {
		inputs := make([]float64, inst.N)
		for i := range inputs {
			inputs[i] = rng.Float64()
			if widths != nil {
				inputs[i] *= widths[i]
			}
		}
		return model.FeasibleAssignmentExists(inputs, inst.Delta)
	}
}

// checkpoints returns the convergence checkpoints a run logged.
func checkpoints(t *testing.T, buf *bytes.Buffer) []map[string]float64 {
	t.Helper()
	evs, err := obs.ReadEvents(buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []map[string]float64
	for _, e := range evs {
		if e.Type == obs.EventCheckpoint {
			got = append(got, e.Attrs)
		}
	}
	return got
}

// TestFeasibilityMatchesPerTrial pins the batched feasibility kernel to
// the per-trial trial it replaced, run through Bernoulli on the same
// streams: identical Results for every (n, π, Workers), and with an
// observer the same sim.rng_draws and, on one worker, the same
// checkpoint stream. (With more workers the checkpoints' win counts
// interleave the workers' progress, which neither path fixes.) The trial
// count is not a multiple of the batch size, so every worker ends on a
// partial batch.
func TestFeasibilityMatchesPerTrial(t *testing.T) {
	const trials = 6*batchSize + 101
	var insts []problem.Instance
	for _, n := range []int{2, 3, 5, 8, 12, 30} {
		insts = append(insts, problem.Instance{N: n, Delta: float64(n) / 3})
	}
	insts = append(insts, problem.Instance{N: 5, Delta: 1.2, Pi: []float64{0.5, 1, 1.5, 0.75, 1}})
	for _, inst := range insts {
		for _, workers := range []int{1, 2, 3} {
			name := fmt.Sprintf("n=%d pi=%v workers=%d", inst.N, inst.Pi, workers)
			cfg := Config{Trials: trials, Workers: workers, Seed: uint64(11 + inst.N)}
			got, err := FeasibilityProbability(inst, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := Bernoulli(cfg, "feasibility", perTrialFeasibility(inst))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got != want {
				t.Errorf("%s: batched %+v != per-trial %+v", name, got, want)
			}

			var gotBuf, wantBuf bytes.Buffer
			gotObs := obs.New(obs.NewRegistry(), obs.NewSink(&gotBuf))
			wantObs := obs.New(obs.NewRegistry(), obs.NewSink(&wantBuf))
			cfg.CheckpointEvery = 500
			cfg.Obs = gotObs
			if got, err = FeasibilityProbability(inst, cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cfg.Obs = wantObs
			if _, err = Bernoulli(cfg, "feasibility", perTrialFeasibility(inst)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got != want {
				t.Errorf("%s: observed batched %+v != per-trial %+v", name, got, want)
			}
			gd, wd := gotObs.Counter("sim.rng_draws").Value(), wantObs.Counter("sim.rng_draws").Value()
			if gd != wd || gd != int64(trials*inst.N) {
				t.Errorf("%s: sim.rng_draws batched %d, per-trial %d, want %d", name, gd, wd, trials*inst.N)
			}
			if workers == 1 {
				gc, wc := checkpoints(t, &gotBuf), checkpoints(t, &wantBuf)
				if len(gc) != trials/500 || !reflect.DeepEqual(gc, wc) {
					t.Errorf("%s: checkpoints batched %v, per-trial %v", name, gc, wc)
				}
			}
		}
	}
}
