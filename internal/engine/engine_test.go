package engine

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/nonoblivious"
	"repro/internal/oblivious"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/py91"
	"repro/internal/response"
	"repro/internal/sim"
)

func mustInstance(t *testing.T, n int, delta float64) Instance {
	t.Helper()
	inst := Instance{N: n, Delta: delta}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestExactParity pins the engine's Exact backend to the pre-refactor
// per-package entry points, bit for bit, for all five rule classes.
func TestExactParity(t *testing.T) {
	e := New(Config{})
	inst := mustInstance(t, 3, 1)

	t.Run("oblivious", func(t *testing.T) {
		want, err := oblivious.SymmetricWinningProbability(3, 1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Evaluate(inst, SymmetricOblivious{A: 0.5}, Exact)
		if err != nil {
			t.Fatal(err)
		}
		if got.P != want {
			t.Errorf("engine %v != oblivious %v", got.P, want)
		}
		alphas := []float64{0.3, 0.5, 0.9}
		wantVec, err := oblivious.WinningProbability(alphas, 1)
		if err != nil {
			t.Fatal(err)
		}
		gotVec, err := e.Evaluate(inst, Oblivious{Alphas: alphas}, Exact)
		if err != nil {
			t.Fatal(err)
		}
		if gotVec.P != wantVec {
			t.Errorf("engine %v != oblivious vector %v", gotVec.P, wantVec)
		}
		det, err := oblivious.WinningProbability([]float64{1, 1, 0}, 1)
		if err != nil {
			t.Fatal(err)
		}
		gotDet, err := e.Evaluate(inst, DeterministicSplit{K: 2}, Exact)
		if err != nil {
			t.Fatal(err)
		}
		if gotDet.P != det {
			t.Errorf("engine split %v != vertex %v", gotDet.P, det)
		}
	})

	t.Run("threshold", func(t *testing.T) {
		beta := 1 - math.Sqrt(1.0/7)
		want, err := nonoblivious.SymmetricWinningProbability(3, 1, beta)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Evaluate(inst, SymmetricThreshold{Beta: beta}, Exact)
		if err != nil {
			t.Fatal(err)
		}
		if got.P != want {
			t.Errorf("engine %v != nonoblivious %v", got.P, want)
		}
		ths := []float64{0.6, 0.62, 0.64}
		wantVec, err := nonoblivious.WinningProbability(ths, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotVec, err := e.Evaluate(inst, Threshold{Thresholds: ths}, Exact)
		if err != nil {
			t.Fatal(err)
		}
		if gotVec.P != wantVec {
			t.Errorf("engine %v != nonoblivious vector %v", gotVec.P, wantVec)
		}
	})

	t.Run("interval", func(t *testing.T) {
		set, err := response.NewIntervalSet([]response.Interval{{Lo: 0, Hi: 0.4}, {Lo: 0.7, Hi: 0.9}})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := response.NewEvaluator(3, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ev.WinProbability(set)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Evaluate(inst, IntervalRule{Set: set}, Exact)
		if err != nil {
			t.Fatal(err)
		}
		if got.P != want {
			t.Errorf("engine %v != response oracle %v", got.P, want)
		}
	})

	t.Run("py91", func(t *testing.T) {
		proto := py91.ConjecturedOptimal()
		want, err := proto.ExactWinProbability()
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Evaluate(inst, PY91Rule{Protocol: proto}, Exact)
		if err != nil {
			t.Fatal(err)
		}
		if got.P != want {
			t.Errorf("engine %v != py91 closed form %v", got.P, want)
		}
		// Weighted averages and full information use their own oracles.
		w, err := py91.NewWeightedAverageProtocol(py91.Broadcast, 0.6, 0.8, 0.8, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []py91.Protocol{w, py91.FullInformationProtocol{}} {
			want, err := p.(py91Exact).ExactWinProbability()
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Evaluate(inst, PY91Rule{Protocol: p}, Exact)
			if err != nil {
				t.Fatal(err)
			}
			if got.P != want {
				t.Errorf("%s: engine %v != py91 oracle %v", p.Name(), got.P, want)
			}
		}
		if _, err := e.Evaluate(inst, PY91Rule{Protocol: noOracleProtocol{}}, Exact); err == nil ||
			!strings.Contains(err.Error(), "no-oracle") {
			t.Errorf("protocol without an oracle: err = %v, want one naming it", err)
		}
	})
}

// TestMonteCarloParity pins the engine's MC backend to the pre-refactor
// simulation entry points for every rule class that had one.
func TestMonteCarloParity(t *testing.T) {
	e := New(Config{})
	inst := mustInstance(t, 3, 1)
	cfg := sim.Config{Trials: 50000, Seed: 9, Workers: 4}

	t.Run("threshold", func(t *testing.T) {
		r := SymmetricThreshold{Beta: 0.622}
		sys, err := r.System(inst)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.WinProbability(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.EvaluateWithCtx(context.Background(), inst, r, MonteCarlo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.P != want.P || got.Sim.Wins != want.Wins {
			t.Errorf("engine %v (%d wins) != sim %v (%d wins)", got.P, got.Sim.Wins, want.P, want.Wins)
		}
		if got.Backend != MonteCarlo || got.StdErr != want.StdErr {
			t.Errorf("result metadata mismatch: %+v vs %+v", got, want)
		}
	})

	t.Run("oblivious", func(t *testing.T) {
		r := SymmetricOblivious{A: 0.5}
		sys, err := r.System(inst)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.WinProbability(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.EvaluateWithCtx(context.Background(), inst, r, MonteCarlo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.P != want.P || got.Sim.Wins != want.Wins {
			t.Errorf("engine %v != sim %v", got.P, want.P)
		}
	})

	t.Run("py91", func(t *testing.T) {
		// The PY91 simulator draws x₀, x₁, x₂ in player order from the
		// same worker streams as the batch kernel, so the conjectured
		// protocol reproduces the symmetric threshold rule at β = 1 − √(1/7)
		// bit for bit, at every worker count.
		for workers := 1; workers <= 4; workers++ {
			cfg := sim.Config{Trials: 30001, Seed: 9, Workers: workers}
			want, err := e.EvaluateWithCtx(context.Background(), inst, SymmetricThreshold{Beta: py91.ConjecturedOptimalThreshold}, MonteCarlo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.EvaluateWithCtx(context.Background(), inst, PY91Rule{Protocol: py91.ConjecturedOptimal()}, MonteCarlo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Backend != MonteCarlo || *got.Sim != *want.Sim {
				t.Errorf("workers=%d: py91 %+v (%v) != threshold %+v", workers, *got.Sim, got.Backend, *want.Sim)
			}
		}
	})

	t.Run("interval", func(t *testing.T) {
		set, err := response.Threshold(0.622)
		if err != nil {
			t.Fatal(err)
		}
		r := IntervalRule{Set: set}
		exact, err := e.Evaluate(inst, r, Exact)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := e.EvaluateWithCtx(context.Background(), inst, r, MonteCarlo, sim.Config{Trials: 200000, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mc.P-exact.P) > 4*mc.StdErr+1e-3 {
			t.Errorf("interval MC %v ± %v far from oracle %v", mc.P, mc.StdErr, exact.P)
		}
	})
}

func TestAutoResolution(t *testing.T) {
	e := New(Config{Sim: sim.Config{Trials: 1000, Seed: 1}})
	inst := mustInstance(t, 3, 1)
	// Every bundled rule has an exact oracle, so Auto resolves to Exact.
	res, err := e.Evaluate(inst, SymmetricThreshold{Beta: 0.5}, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != Exact {
		t.Errorf("auto resolved to %v, want exact", res.Backend)
	}
	// A rule without an exact oracle falls back to Monte-Carlo.
	res, err = e.Evaluate(inst, mcOnlyRule{}, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != MonteCarlo {
		t.Errorf("auto resolved to %v, want mc", res.Backend)
	}
	// Forcing Exact on it fails up front.
	if _, err := e.Evaluate(inst, mcOnlyRule{}, Exact); err == nil {
		t.Error("exact on mc-only rule: expected error")
	}
}

// TestAutoFallsThroughPlayerCap checks Auto past an exact oracle's player
// cap: the oracle's refusal (problem.ErrPlayerCap) sends Auto to
// Monte-Carlo with the same bits an explicit mc request returns, while an
// explicit Exact request still refuses and names the cap.
func TestAutoFallsThroughPlayerCap(t *testing.T) {
	cfg := sim.Config{Trials: 2000, Seed: 3, Workers: 1}
	band, err := response.NewIntervalSet([]response.Interval{{Lo: 0.3, Hi: 0.75}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		inst Instance
		rule Rule
		cap  string
	}{
		{"symmetric threshold", mustInstance(t, 57, 19), SymmetricThreshold{Beta: 0.5}, "limited to 56 players"},
		{"hetero oblivious", mustInstancePi(t, 22, 7, append([]float64{0.5}, repeated(1, 21)...)), SymmetricOblivious{A: 0.5}, "limited to 20 players"},
		{"interval rule", mustInstance(t, 13, 13.0/3), IntervalRule{Set: band}, "limited to 12 players"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New(Config{Sim: cfg})
			_, err := e.Evaluate(c.inst, c.rule, Exact)
			if !errors.Is(err, problem.ErrPlayerCap) || !strings.Contains(err.Error(), c.cap) {
				t.Fatalf("explicit exact: error %v, want a player-cap refusal naming %q", err, c.cap)
			}
			auto, err := e.Evaluate(c.inst, c.rule, Auto)
			if err != nil {
				t.Fatalf("auto: %v", err)
			}
			if auto.Backend != MonteCarlo || auto.Sim == nil || auto.Sim.Trials != int64(cfg.Trials) {
				t.Fatalf("auto resolved to %v (%+v), want a %d-trial mc estimate", auto.Backend, auto.Sim, cfg.Trials)
			}
			mc, err := New(Config{Sim: cfg}).Evaluate(c.inst, c.rule, MonteCarlo)
			if err != nil {
				t.Fatal(err)
			}
			if auto.P != mc.P || auto.StdErr != mc.StdErr {
				t.Errorf("auto fallback %v ± %v != explicit mc %v ± %v", auto.P, auto.StdErr, mc.P, mc.StdErr)
			}
		})
	}
}

// mcOnlyRule is a test rule with no exact oracle.
type mcOnlyRule struct{}

func (mcOnlyRule) Name() string        { return "mc-only" }
func (mcOnlyRule) Fingerprint() string { return "test:mc-only" }
func (mcOnlyRule) System(inst Instance) (*model.System, error) {
	return SymmetricThreshold{Beta: 0.5}.System(inst)
}

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
	}{{"exact", Exact}, {"MC", MonteCarlo}, {"montecarlo", MonteCarlo}, {"auto", Auto}, {"sim", MonteCarlo}} {
		got, err := ParseBackend(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseBackend("quantum"); err == nil {
		t.Error("unknown backend: expected error")
	}
}

func TestEvaluateValidation(t *testing.T) {
	e := New(Config{})
	inst := mustInstance(t, 3, 1)
	if _, err := e.Evaluate(inst, nil, Auto); err == nil {
		t.Error("nil rule: expected error")
	}
	if _, err := e.Evaluate(Instance{N: 1, Delta: 1}, SymmetricThreshold{Beta: 0.5}, Exact); err == nil {
		t.Error("n=1: expected error")
	}
	if _, err := e.Evaluate(Instance{N: 3, Delta: 0}, SymmetricThreshold{Beta: 0.5}, Exact); err == nil {
		t.Error("δ=0: expected error")
	}
	// Rule-level validation surfaces (wrong vector length).
	if _, err := e.Evaluate(inst, Threshold{Thresholds: []float64{0.5}}, Exact); err == nil {
		t.Error("wrong vector length: expected error")
	}
	// System on a communication rule reports ErrNoSystem.
	if _, err := (PY91Rule{Protocol: py91.ConjecturedOptimal()}).System(inst); !errors.Is(err, ErrNoSystem) {
		t.Error("py91 System should wrap ErrNoSystem")
	}
}

// TestCacheHitSemantics checks the memoization contract: the second
// identical evaluation is served from cache with identical bits, distinct
// keys stay distinct, and counters record the traffic.
func TestCacheHitSemantics(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Obs: obs.New(reg, nil)})
	inst := mustInstance(t, 3, 1)
	cfg := sim.Config{Trials: 20000, Seed: 5, Workers: 2}

	first, err := e.EvaluateWithCtx(context.Background(), inst, SymmetricThreshold{Beta: 0.622}, MonteCarlo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first evaluation claims to be cached")
	}
	second, err := e.EvaluateWithCtx(context.Background(), inst, SymmetricThreshold{Beta: 0.622}, MonteCarlo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second identical evaluation not cached")
	}
	if second.P != first.P || second.Sim.Wins != first.Sim.Wins {
		t.Errorf("cache returned different bits: %v vs %v", second, first)
	}
	// A different seed is a different key.
	third, err := e.EvaluateWithCtx(context.Background(), inst, SymmetricThreshold{Beta: 0.622}, MonteCarlo, sim.Config{Trials: 20000, Seed: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Error("distinct seed served from cache")
	}
	// Exact and MC are distinct keys for the same rule.
	if _, err := e.Evaluate(inst, SymmetricThreshold{Beta: 0.622}, Exact); err != nil {
		t.Fatal(err)
	}
	if e.CacheLen() != 3 {
		t.Errorf("cache has %d entries, want 3", e.CacheLen())
	}
	if hits := reg.Counter("engine.cache.hits").Value(); hits != 1 {
		t.Errorf("hit counter = %d, want 1", hits)
	}
	if misses := reg.Counter("engine.cache.misses").Value(); misses != 3 {
		t.Errorf("miss counter = %d, want 3", misses)
	}
	// Errors are not poisoned into successful entries: an error result is
	// returned to every caller of that key.
	if _, err := e.Evaluate(inst, Threshold{Thresholds: []float64{0.5}}, Exact); err == nil {
		t.Fatal("expected error")
	}
}

// TestPY91FingerprintKeepsFullPrecision pins the cache key of weighted
// PY91 protocols: two protocols whose rounded names agree must still get
// distinct keys, so the second evaluation is not served the first one's
// value.
func TestPY91FingerprintKeepsFullPrecision(t *testing.T) {
	e := New(Config{})
	inst := mustInstance(t, 3, 1)
	a, err := py91.NewWeightedAverageProtocol(py91.OneWay, 0.6, 0.7, 0.65, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := py91.NewWeightedAverageProtocol(py91.OneWay, 0.6, 0.7, 0.65, 0.3002)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != b.Name() {
		t.Fatalf("names %q and %q differ; pick parameters that round alike", a.Name(), b.Name())
	}
	ra, err := e.Evaluate(inst, PY91Rule{Protocol: a}, Exact)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := e.Evaluate(inst, PY91Rule{Protocol: b}, Exact)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Cached || ra.P == rb.P {
		t.Errorf("second protocol served %v (cached %v), first %v", rb.P, rb.Cached, ra.P)
	}
	want, err := b.ExactWinProbability()
	if err != nil {
		t.Fatal(err)
	}
	if rb.P != want {
		t.Errorf("engine %v != oracle %v", rb.P, want)
	}
}

// TestPY91SimulateObserved checks that PY91 Monte-Carlo runs on the
// shared simulator: an observed run moves the sim counters and opens a
// sim.engine.py91 span.
func TestPY91SimulateObserved(t *testing.T) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	o := obs.New(reg, obs.NewSink(&buf))
	inst := mustInstance(t, 3, 1)
	const trials = 20001
	cfg := sim.Config{Trials: trials, Seed: 3, Workers: 2, Obs: o}
	if _, err := New(Config{}).EvaluateWithCtx(context.Background(), inst, PY91Rule{Protocol: py91.ConjecturedOptimal()}, MonteCarlo, cfg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sim.runs").Value(); got != 1 {
		t.Errorf("sim.runs = %d, want 1", got)
	}
	if got := reg.Counter("sim.trials").Value(); got != trials {
		t.Errorf("sim.trials = %d, want %d", got, trials)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, ev := range events {
		if ev.Type == obs.EventSpanStart && ev.Name == "sim.engine.py91" {
			spans++
		}
	}
	if spans != 1 {
		t.Errorf("sim.engine.py91 spans = %d, want 1", spans)
	}
}

// noOracleProtocol is a PY91 protocol without an exact oracle.
type noOracleProtocol struct{}

func (noOracleProtocol) Name() string { return "no-oracle" }
func (noOracleProtocol) Decide([py91.Players]float64) ([py91.Players]model.Bin, error) {
	return [py91.Players]model.Bin{}, nil
}

// TestCacheConcurrency exercises the singleflight cache under the race
// detector: many goroutines evaluating overlapping keys must agree bit-
// for-bit with an uncached engine, and concurrent identical calls must
// coalesce into one computation.
func TestCacheConcurrency(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Obs: obs.New(reg, nil)})
	inst := mustInstance(t, 3, 1)
	cfg := sim.Config{Trials: 5000, Seed: 7, Workers: 2}
	betas := []float64{0.3, 0.4, 0.5, 0.6, 0.622}

	// Uncached reference results.
	want := make([]Result, len(betas))
	for i, b := range betas {
		r, err := New(Config{}).EvaluateWithCtx(context.Background(), inst, SymmetricThreshold{Beta: b}, MonteCarlo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	const goroutines = 8
	got := make([][]Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]Result, len(betas))
			for i, b := range betas {
				r, err := e.EvaluateWithCtx(context.Background(), inst, SymmetricThreshold{Beta: b}, MonteCarlo, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = r
			}
		}(g)
	}
	wg.Wait()

	for g := range got {
		for i := range betas {
			if got[g][i].P != want[i].P || got[g][i].Sim.Wins != want[i].Sim.Wins {
				t.Errorf("goroutine %d β=%v: cached %v != uncached %v", g, betas[i], got[g][i].P, want[i].P)
			}
		}
	}
	if misses := reg.Counter("engine.cache.misses").Value(); misses != int64(len(betas)) {
		t.Errorf("computed %d times, want exactly %d (singleflight)", misses, len(betas))
	}
	if hits := reg.Counter("engine.cache.hits").Value(); hits < 1 {
		t.Error("no cache hits recorded across concurrent identical evaluations")
	}
}

func TestNewDefaultTrials(t *testing.T) {
	if got := New(Config{}).SimConfig().Trials; got != DefaultTrials {
		t.Errorf("default trials = %d, want %d", got, DefaultTrials)
	}
}
