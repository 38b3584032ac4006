package py91

import (
	"testing"

	"repro/internal/model"
)

// plainProtocol hides a protocol's BatchProtocol implementation so tests
// can force Evaluate onto the per-trial path.
type plainProtocol struct{ p Protocol }

func (pp plainProtocol) Name() string     { return pp.p.Name() }
func (pp plainProtocol) Pattern() Pattern { return pp.p.Pattern() }
func (pp plainProtocol) Decide(x [Players]float64) ([Players]model.Bin, error) {
	return pp.p.Decide(x)
}

// TestEvaluateBatchedMatchesPerTrial runs each batchable protocol through
// Evaluate twice — once batched, once with the batch implementation
// hidden — and requires identical evaluations for fixed (Seed, Workers).
func TestEvaluateBatchedMatchesPerTrial(t *testing.T) {
	wa, err := NewWeightedAverageProtocol(Broadcast, 0.62, 0.9, 0.9, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ow, err := NewWeightedAverageProtocol(OneWay, 0.6, 0.8, 0.65, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewThresholdProtocol([3]float64{0.62, 0.55, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []BatchProtocol{wa, ow, tp} {
		for _, w := range []int{1, 4} {
			cfg := SimConfig{Trials: 20000, Workers: w, Seed: 5}
			batched, err := Evaluate(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			perTrial, err := Evaluate(plainProtocol{p}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The wrapper changes only the reported name.
			perTrial.Protocol = batched.Protocol
			if batched != perTrial {
				t.Errorf("%s workers=%d: batched %+v != per-trial %+v", p.Name(), w, batched, perTrial)
			}
		}
	}
}

// TestEvaluateMatchesGolden pins Evaluate to estimates recorded from the
// pre-batch per-trial engine (Trials=20000, Seed=5).
func TestEvaluateMatchesGolden(t *testing.T) {
	wa, err := NewWeightedAverageProtocol(Broadcast, 0.62, 0.9, 0.9, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ow, err := NewWeightedAverageProtocol(OneWay, 0.6, 0.8, 0.65, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewThresholdProtocol([3]float64{0.62, 0.55, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p    Protocol
		wins map[int]int64 // workers → golden win count (P * 20000)
	}{
		{wa, map[int]int64{1: 6850, 4: 6933}},
		{ow, map[int]int64{1: 9196, 4: 9166}},
		{tp, map[int]int64{1: 10820, 4: 10894}},
	} {
		for w, want := range tc.wins {
			ev, err := Evaluate(tc.p, SimConfig{Trials: 20000, Workers: w, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if got := int64(ev.P*float64(ev.Trials) + 0.5); got != want {
				t.Errorf("%s workers=%d: wins = %d (p=%.10f), golden %d", tc.p.Name(), w, got, ev.P, want)
			}
		}
	}
}

// TestEvaluateBatchedAllocationRegression pins the batched evaluation's
// allocation profile: per-run setup only, under 0.01 allocs/trial.
func TestEvaluateBatchedAllocationRegression(t *testing.T) {
	tp, err := NewThresholdProtocol([3]float64{0.62, 0.55, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	const trials = 50000
	cfg := SimConfig{Trials: trials, Workers: 1, Seed: 3}
	if _, err := Evaluate(tp, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Evaluate(tp, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if perTrial := allocs / trials; perTrial >= 0.01 {
		t.Errorf("%v allocs per run (%v/trial), want < 0.01/trial", allocs, perTrial)
	}
}
