package engine

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/problem"
)

// The Section 5.2 pinned optimum at n=3, δ=1.
const (
	pinnedBeta = 0.6220355269907728
	pinnedP    = 0.5446311396758939
)

func optInstance(t *testing.T, n int, delta float64, pi []float64) Instance {
	t.Helper()
	var inst problem.Instance
	var err error
	if pi != nil {
		inst, err = problem.NewPi(n, delta, pi)
	} else {
		inst, err = problem.New(n, delta)
	}
	if err != nil {
		t.Fatalf("instance: %v", err)
	}
	return inst
}

func TestOptimizeScalarThresholdRecoversPinnedOptimum(t *testing.T) {
	e := New(Config{})
	inst := optInstance(t, 3, 1, nil)
	res, err := e.OptimizeCtx(context.Background(), inst, ThresholdBetaFamily{}, OptimizeOptions{Backend: Exact})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if math.Abs(res.Params[0]-pinnedBeta) > 1e-8 {
		t.Errorf("β* = %.16f, want %.16f", res.Params[0], pinnedBeta)
	}
	if math.Abs(res.Value-pinnedP) > 1e-12 {
		t.Errorf("P* = %.16f, want %.16f", res.Value, pinnedP)
	}
	if res.Backend != Exact {
		t.Errorf("backend = %v, want Exact", res.Backend)
	}
	if res.Evals <= 0 || res.Iterations <= 0 {
		t.Errorf("missing search stats: %+v", res)
	}
	if res.Family != "threshold" {
		t.Errorf("family = %q", res.Family)
	}
}

// TestOptimizeVectorRecoversSymmetricOptimum is the tentpole property test:
// searching the full n-dimensional a-vector on the homogeneous n=3, δ=1
// instance must land back on the symmetric ray at the pinned β*/P*.
func TestOptimizeVectorRecoversSymmetricOptimum(t *testing.T) {
	e := New(Config{})
	inst := optInstance(t, 3, 1, nil)
	res, err := e.OptimizeCtx(context.Background(), inst, ThresholdVectorFamily{}, OptimizeOptions{Backend: Exact})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if len(res.Params) != 3 {
		t.Fatalf("got %d params, want 3", len(res.Params))
	}
	for i, a := range res.Params {
		if math.Abs(a-pinnedBeta) > 1e-4 {
			t.Errorf("a*[%d] = %.12f, want %.12f ± 1e-4", i, a, pinnedBeta)
		}
	}
	if math.Abs(res.Value-pinnedP) > 1e-9 {
		t.Errorf("P* = %.16f, want %.16f ± 1e-9", res.Value, pinnedP)
	}
}

// TestOptimizeScalarMatchesSearcher pins the engine's scalar path to the
// plain GridThenGoldenMax run the CLI cross-check used before optimization
// moved into the engine: same argmax, value, eval and iteration counts —
// the byte-identity contract of the rewired `nocomm optimize`.
func TestOptimizeScalarMatchesSearcher(t *testing.T) {
	e := New(Config{})
	inst := optInstance(t, 3, 1, nil)
	res, err := e.OptimizeCtx(context.Background(), inst, ThresholdBetaFamily{}, OptimizeOptions{Backend: Exact})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	direct, err := optimize.GridThenGoldenMax(nil, func(beta float64) float64 {
		r, err := e.Evaluate(inst, SymmetricThreshold{Beta: beta}, Exact)
		if err != nil {
			return math.Inf(-1)
		}
		return r.P
	}, 0, 1, DefaultOptimizeGrid, DefaultOptimizeTol)
	if err != nil {
		t.Fatalf("GridThenGoldenMax: %v", err)
	}
	if res.Params[0] != direct.X || res.Value != direct.Value {
		t.Errorf("engine (%v, %v) != searcher (%v, %v)", res.Params[0], res.Value, direct.X, direct.Value)
	}
	if res.Evals != direct.Evals || res.Iterations != direct.Iterations {
		t.Errorf("engine stats (%d evals, %d iters) != searcher (%d, %d)",
			res.Evals, res.Iterations, direct.Evals, direct.Iterations)
	}
}

// TestOptimizeWarmCache verifies the acceptance criterion that a repeated
// optimize run is served from the memoization cache: the second identical
// search reports every probe cached and the engine.cache.hits counter grows.
func TestOptimizeWarmCache(t *testing.T) {
	o := obs.New(obs.NewRegistry(), nil)
	e := New(Config{Obs: o})
	inst := optInstance(t, 3, 1, nil)
	cold, err := e.OptimizeCtx(context.Background(), inst, ThresholdBetaFamily{}, OptimizeOptions{Backend: Exact})
	if err != nil {
		t.Fatalf("cold Optimize: %v", err)
	}
	warm, err := e.OptimizeCtx(context.Background(), inst, ThresholdBetaFamily{}, OptimizeOptions{Backend: Exact})
	if err != nil {
		t.Fatalf("warm Optimize: %v", err)
	}
	if warm.Params[0] != cold.Params[0] || warm.Value != cold.Value {
		t.Errorf("warm run differs: (%v, %v) != (%v, %v)", warm.Params[0], warm.Value, cold.Params[0], cold.Value)
	}
	if warm.CacheHits != warm.Evals {
		t.Errorf("warm run: %d of %d probes cached, want all", warm.CacheHits, warm.Evals)
	}
	if hits := o.Counter("engine.cache.hits").Value(); hits <= 0 {
		t.Errorf("engine.cache.hits = %d, want > 0", hits)
	}
	if hits := o.Counter("optimize.cache_hits").Value(); int(hits) < warm.Evals {
		t.Errorf("optimize.cache_hits = %d, want ≥ %d", hits, warm.Evals)
	}
	if evals := o.Counter("optimize.evals").Value(); int(evals) != cold.Evals+warm.Evals {
		t.Errorf("optimize.evals = %d, want %d", evals, cold.Evals+warm.Evals)
	}
}

// TestOptimizeParallelSharedCache is the singleflight hammer: parallel
// engine.OptimizeCtx calls on the same instance share the memo cache without
// races and every goroutine observes bit-identical results.
func TestOptimizeParallelSharedCache(t *testing.T) {
	o := obs.New(obs.NewRegistry(), nil)
	e := New(Config{Obs: o})
	inst := optInstance(t, 3, 1, nil)
	const goroutines = 8
	results := make([]OptimizeResult, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fam := RuleFamily(ThresholdBetaFamily{})
			if g%2 == 1 {
				fam = ThresholdVectorFamily{}
			}
			results[g], errs[g] = e.OptimizeCtx(context.Background(), inst, fam, OptimizeOptions{Backend: Exact})
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		ref := results[g%2]
		if results[g].Value != ref.Value {
			t.Errorf("goroutine %d: P = %v, want %v (bit-identical)", g, results[g].Value, ref.Value)
		}
		for i, p := range results[g].Params {
			if p != ref.Params[i] {
				t.Errorf("goroutine %d: params[%d] = %v, want %v", g, i, p, ref.Params[i])
			}
		}
	}
	hits := o.Counter("engine.cache.hits").Value()
	misses := o.Counter("engine.cache.misses").Value()
	if hits <= 0 {
		t.Errorf("engine.cache.hits = %d, want > 0 (parallel searches share the cache)", hits)
	}
	if misses <= 0 {
		t.Errorf("engine.cache.misses = %d, want > 0", misses)
	}
}

// TestOptimizeDeadline covers both deadline outcomes: a context cancelled
// mid-search degrades to the best point already evaluated, and a context
// dead on arrival returns its error.
func TestOptimizeDeadline(t *testing.T) {
	e := New(Config{})
	inst := optInstance(t, 3, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	fam := cancelAfterFamily{inner: ThresholdBetaFamily{}, cancel: cancel, after: 10}
	res, err := e.OptimizeCtx(ctx, inst, &fam, OptimizeOptions{Backend: Exact})
	if err != nil {
		t.Fatalf("OptimizeCtx: %v", err)
	}
	if !res.Degraded {
		t.Errorf("cancelled mid-search: Degraded = false, want true")
	}
	if math.IsInf(res.Value, -1) || len(res.Params) != 1 {
		t.Errorf("degraded result carries no best point: %+v", res)
	}

	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := e.OptimizeCtx(dead, inst, ThresholdBetaFamily{}, OptimizeOptions{Backend: Exact}); err == nil {
		t.Errorf("dead-on-arrival context: err = nil, want context error")
	}
}

// cancelAfterFamily cancels its context after a fixed number of rule
// materializations, simulating a deadline striking mid-search.
type cancelAfterFamily struct {
	inner  ThresholdBetaFamily
	cancel context.CancelFunc
	after  int
	calls  int
}

func (f *cancelAfterFamily) Name() string { return f.inner.Name() }
func (f *cancelAfterFamily) Bounds(inst Instance) ([]float64, []float64, error) {
	return f.inner.Bounds(inst)
}
func (f *cancelAfterFamily) Rule(inst Instance, params []float64) (Rule, error) {
	f.calls++
	if f.calls == f.after {
		f.cancel()
	}
	return f.inner.Rule(inst, params)
}

func TestOptimizeObliviousFamily(t *testing.T) {
	e := New(Config{})
	inst := optInstance(t, 3, 1, nil)
	res, err := e.OptimizeCtx(context.Background(), inst, ObliviousAlphaFamily{}, OptimizeOptions{Backend: Exact})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	// Theorem 4.3: α* = 1/2, P* = 5/12 at n=3, δ=1.
	if math.Abs(res.Params[0]-0.5) > 1e-6 {
		t.Errorf("α* = %.12f, want 0.5", res.Params[0])
	}
	if math.Abs(res.Value-5.0/12.0) > 1e-10 {
		t.Errorf("P* = %.12f, want %.12f", res.Value, 5.0/12.0)
	}
}

func TestThresholdVectorFamilyBounds(t *testing.T) {
	inst := optInstance(t, 3, 1, []float64{0.5, 1, 2})
	lo, hi, err := ThresholdVectorFamily{}.Bounds(inst)
	if err != nil {
		t.Fatalf("Bounds: %v", err)
	}
	want := []float64{0.5, 1, 1} // min(1, π_i)
	for i := range hi {
		if lo[i] != 0 || hi[i] != want[i] {
			t.Errorf("bounds[%d] = [%v, %v], want [0, %v]", i, lo[i], hi[i], want[i])
		}
	}
	vf := ThresholdVectorFamily{}
	if _, err := vf.Rule(inst, []float64{0.6, 0.5, 0.5}); err == nil {
		t.Errorf("out-of-box params accepted (a_0 > π_0)")
	}
}

func TestFamilyForKind(t *testing.T) {
	kinds := map[string]string{"threshold": "threshold", "oblivious": "oblivious", "vector": "vector"}
	for kind, want := range kinds {
		fam, err := FamilyForKind(kind)
		if err != nil {
			t.Fatalf("FamilyForKind(%q): %v", kind, err)
		}
		if fam.Name() != want {
			t.Errorf("FamilyForKind(%q).Name() = %q", kind, fam.Name())
		}
	}
	if _, err := FamilyForKind("bogus"); err == nil {
		t.Errorf("unknown kind accepted")
	}
	if _, err := New(Config{}).OptimizeCtx(context.Background(), optInstance(t, 3, 1, nil), nil, OptimizeOptions{}); err == nil {
		t.Errorf("nil family accepted")
	}
}
