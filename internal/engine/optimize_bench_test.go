package engine

import (
	"context"
	"testing"

	"repro/internal/problem"
)

func benchInstance(b *testing.B, n int, delta float64, pi []float64) Instance {
	b.Helper()
	var inst problem.Instance
	var err error
	if pi != nil {
		inst, err = problem.NewPi(n, delta, pi)
	} else {
		inst, err = problem.New(n, delta)
	}
	if err != nil {
		b.Fatalf("instance: %v", err)
	}
	return inst
}

// BenchmarkOptimizeScalarCold prices a full scalar threshold search
// (grid + golden-section, exact backend) against an empty memoization
// cache every iteration.
func BenchmarkOptimizeScalarCold(b *testing.B) {
	inst := benchInstance(b, 3, 1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Config{})
		if _, err := e.OptimizeCtx(context.Background(), inst, ThresholdBetaFamily{}, OptimizeOptions{Backend: Exact}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeScalarWarm repeats the same search on one shared
// engine: after the first run every probe is a cache hit, so this prices
// the search driver + cache lookup overhead alone.
func BenchmarkOptimizeScalarWarm(b *testing.B) {
	inst := benchInstance(b, 3, 1, nil)
	e := New(Config{})
	if _, err := e.OptimizeCtx(context.Background(), inst, ThresholdBetaFamily{}, OptimizeOptions{Backend: Exact}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.OptimizeCtx(context.Background(), inst, ThresholdBetaFamily{}, OptimizeOptions{Backend: Exact}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeVectorCold prices the full a-vector search (coordinate
// ascent + Nelder–Mead polish, exact backend) on the heterogeneous
// π=(1/2,1,1) instance with a cold cache every iteration.
func BenchmarkOptimizeVectorCold(b *testing.B) {
	inst := benchInstance(b, 3, 1, []float64{0.5, 1, 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Config{})
		if _, err := e.OptimizeCtx(context.Background(), inst, ThresholdVectorFamily{}, OptimizeOptions{Backend: Exact}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeVectorWarm repeats the a-vector search on one shared
// engine, pricing the searcher + memoization path with a hot cache.
func BenchmarkOptimizeVectorWarm(b *testing.B) {
	inst := benchInstance(b, 3, 1, []float64{0.5, 1, 1})
	e := New(Config{})
	if _, err := e.OptimizeCtx(context.Background(), inst, ThresholdVectorFamily{}, OptimizeOptions{Backend: Exact}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.OptimizeCtx(context.Background(), inst, ThresholdVectorFamily{}, OptimizeOptions{Backend: Exact}); err != nil {
			b.Fatal(err)
		}
	}
}
