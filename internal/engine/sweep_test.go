package engine

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func betaGrid(inst Instance, betas []float64) []Point {
	points := make([]Point, len(betas))
	for i, b := range betas {
		points[i] = Point{Instance: inst, Rule: SymmetricThreshold{Beta: b}}
	}
	return points
}

func TestSweepMatchesPointwise(t *testing.T) {
	e := New(Config{})
	inst := Instance{N: 3, Delta: 1}
	betas := []float64{0.1, 0.3, 0.5, 0.622, 0.8, 1}
	results, err := e.Sweep(context.Background(), betaGrid(inst, betas), SweepOptions{Backend: Exact, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(betas) {
		t.Fatalf("got %d results for %d points", len(results), len(betas))
	}
	for i, b := range betas {
		want, err := New(Config{}).Evaluate(inst, SymmetricThreshold{Beta: b}, Exact)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].P != want.P {
			t.Errorf("β=%v: sweep %v != pointwise %v", b, results[i].P, want.P)
		}
	}
	// The β* ≈ 0.622 column should dominate the sampled grid.
	best := 0
	for i := range results {
		if results[i].P > results[best].P {
			best = i
		}
	}
	if betas[best] != 0.622 {
		t.Errorf("best sampled threshold %v, want 0.622", betas[best])
	}
}

func TestSweepVaryingInstance(t *testing.T) {
	// The Figure 3 shape: one rule class, capacity varying per point.
	e := New(Config{})
	var points []Point
	for _, d := range []float64{0.5, 0.75, 1, 1.25} {
		points = append(points, Point{Instance: Instance{N: 3, Delta: d}, Rule: SymmetricOblivious{A: 0.5}})
	}
	results, err := e.Sweep(context.Background(), points, SweepOptions{Backend: Exact})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		if results[i].P < results[i-1].P {
			t.Errorf("winning probability not monotone in δ: %v then %v", results[i-1].P, results[i].P)
		}
	}
}

func TestSweepErrorsAndEdgeCases(t *testing.T) {
	e := New(Config{})
	inst := Instance{N: 3, Delta: 1}
	if res, err := e.Sweep(context.Background(), nil, SweepOptions{}); err != nil || res != nil {
		t.Errorf("empty sweep: got %v, %v", res, err)
	}
	// The lowest-indexed failing point's error wins deterministically.
	points := []Point{
		{Instance: inst, Rule: SymmetricThreshold{Beta: 0.5}},
		{Instance: Instance{N: 1, Delta: 1}, Rule: SymmetricThreshold{Beta: 0.5}},
		{Instance: Instance{N: 0, Delta: 0}, Rule: nil},
	}
	_, err := e.Sweep(context.Background(), points, SweepOptions{Backend: Exact, Workers: 4})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := err.Error(); !strings.Contains(got, "sweep point 1") {
		t.Errorf("error %q should name point 1 (lowest failing index)", got)
	}
	if _, err := e.Sweep(context.Background(), points[:1], SweepOptions{Workers: -2}); err == nil {
		t.Error("negative workers: expected error")
	}
}

// TestConcurrentSweepsShareCache runs identical and distinct sweeps
// concurrently (the satellite's -race scenario) and checks results stay
// bit-identical to uncached evaluation with at least one recorded hit.
func TestConcurrentSweepsShareCache(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Obs: obs.New(reg, nil)})
	inst := Instance{N: 3, Delta: 1}
	cfg := sim.Config{Trials: 4000, Seed: 13, Workers: 2}
	shared := []float64{0.4, 0.5, 0.6}
	distinct := [][]float64{{0.45, 0.55}, {0.65, 0.7}, {0.2, 0.3}}

	want := map[float64]Result{}
	for _, b := range append(append([]float64{}, shared...), 0.45, 0.55, 0.65, 0.7, 0.2, 0.3) {
		r, err := New(Config{}).EvaluateWithCtx(context.Background(), inst, SymmetricThreshold{Beta: b}, MonteCarlo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[b] = r
	}

	check := func(betas []float64, got []Result) {
		for i, b := range betas {
			if got[i].P != want[b].P || got[i].Sim.Wins != want[b].Sim.Wins {
				t.Errorf("β=%v: concurrent sweep %v != uncached %v", b, got[i].P, want[b].P)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(2)
		go func() { // identical sweep, repeated concurrently
			defer wg.Done()
			res, err := e.Sweep(context.Background(), betaGrid(inst, shared), SweepOptions{Backend: MonteCarlo, Sim: cfg, Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			check(shared, res)
		}()
		go func(g int) { // distinct sweep per goroutine
			defer wg.Done()
			res, err := e.Sweep(context.Background(), betaGrid(inst, distinct[g]), SweepOptions{Backend: MonteCarlo, Sim: cfg, Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			check(distinct[g], res)
		}(g)
	}
	wg.Wait()

	wantKeys := int64(len(shared) + 6)
	if misses := reg.Counter("engine.cache.misses").Value(); misses != wantKeys {
		t.Errorf("misses = %d, want %d distinct computations", misses, wantKeys)
	}
	if hits := reg.Counter("engine.cache.hits").Value(); hits < 1 {
		t.Error("no cache hit recorded across repeated identical sweeps")
	}
}

// TestRepeatedSweepServedFromCache is the deterministic counterpart of the
// cold/warm benchmark: the second identical sweep must be 100% hits.
func TestRepeatedSweepServedFromCache(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Obs: obs.New(reg, nil)})
	inst := Instance{N: 3, Delta: 1}
	points := betaGrid(inst, []float64{0.3, 0.5, 0.7})
	opts := SweepOptions{Backend: MonteCarlo, Sim: sim.Config{Trials: 2000, Seed: 2, Workers: 2}}

	cold, err := e.Sweep(context.Background(), points, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.Sweep(context.Background(), points, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if warm[i].P != cold[i].P {
			t.Errorf("point %d: warm %v != cold %v", i, warm[i].P, cold[i].P)
		}
		if !warm[i].Cached {
			t.Errorf("point %d not served from cache on repeat", i)
		}
	}
	if hits := reg.Counter("engine.cache.hits").Value(); hits != int64(len(points)) {
		t.Errorf("hits = %d, want %d", hits, len(points))
	}
}

// BenchmarkSweepCold and BenchmarkSweepWarm are the paired benchmark from
// the acceptance criteria: the warm path re-runs an identical sweep
// against a shared engine (all cache hits) and must be ≥10× faster than
// the cold path, which pays the full Monte-Carlo cost every iteration.
func benchmarkPoints() ([]Point, SweepOptions) {
	inst := Instance{N: 3, Delta: 1}
	betas := []float64{0.3, 0.4, 0.5, 0.6, 0.622, 0.7, 0.8, 0.9}
	return betaGrid(inst, betas), SweepOptions{Backend: MonteCarlo, Sim: sim.Config{Trials: 100000, Seed: 3, Workers: 2}}
}

func BenchmarkSweepCold(b *testing.B) {
	points, opts := benchmarkPoints()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(Config{}).Sweep(context.Background(), points, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepWarm(b *testing.B) {
	points, opts := benchmarkPoints()
	e := New(Config{})
	if _, err := e.Sweep(context.Background(), points, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Sweep(context.Background(), points, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSweepAutoMixedRules sweeps a heterogeneous rule set — the T4-style
// cross-class comparison — through Auto.
func TestSweepAutoMixedRules(t *testing.T) {
	e := New(Config{Sim: sim.Config{Trials: 2000, Seed: 1}})
	inst := Instance{N: 3, Delta: 1}
	points := []Point{
		{Instance: inst, Rule: SymmetricOblivious{A: 0.5}},
		{Instance: inst, Rule: DeterministicSplit{K: 2}},
		{Instance: inst, Rule: SymmetricThreshold{Beta: 0.622}},
		{Instance: inst, Rule: OneBitRule{Cut: 0.5, SenderTheta: 0.6, BetaLow: 0.7, BetaHigh: 0.5}},
	}
	results, err := e.Sweep(context.Background(), points, SweepOptions{Backend: Auto})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Backend != Exact {
			t.Errorf("point %d resolved to %v, want exact", i, r.Backend)
		}
		if math.IsNaN(r.P) || r.P < 0 || r.P > 1 {
			t.Errorf("point %d: P = %v out of range", i, r.P)
		}
	}
	// More informed classes should do at least as well as less informed
	// ones on this instance (the paper's trade-off).
	if results[2].P < results[0].P {
		t.Errorf("threshold %v below oblivious %v", results[2].P, results[0].P)
	}
}
