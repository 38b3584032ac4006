package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Point is one cell of a sweep: a rule evaluated on an instance. Sweeps
// over a parameter (the Figure 1 β grid, the Figure 2 α grid) hold the
// instance fixed and vary the rule; sweeps over δ (Figure 3) vary the
// instance too.
type Point struct {
	// Instance is the problem the rule plays on.
	Instance Instance
	// Rule is the rule to evaluate.
	Rule Rule
}

// SweepOptions configures Engine.Sweep and Engine.SweepChunksCtx.
type SweepOptions struct {
	// Backend selects the backend for every point (Auto resolves per
	// rule).
	Backend Backend
	// Workers is the sharding width; 0 selects the repo-wide default
	// (GOMAXPROCS, clamped to the point count) via sim.WorkerCount.
	Workers int
	// Sim overrides the engine's Monte-Carlo configuration for points
	// that resolve to the MonteCarlo backend; zero Trials keeps the
	// engine default.
	Sim sim.Config
}

// Sweep evaluates every point, sharding the grid across workers with an
// atomic cursor (no per-worker slab imbalance: each worker pulls the next
// unclaimed index). Results align with points; every point's result is
// memoized individually, so a repeated sweep — or a sweep overlapping an
// earlier one — is served from cache. On failure the error of the
// lowest-indexed failing point is returned, independent of scheduling.
// Points evaluate as EvaluateWithCtx does, so spans parent
// onto any obs span riding ctx, and a cancelled or expired ctx stops
// workers from claiming further points (points already in flight finish
// in the background and land in the cache); on cancellation the context's
// error is returned.
func (e *Engine) Sweep(ctx context.Context, points []Point, opts SweepOptions) ([]Result, error) {
	var results []Result
	err := e.SweepChunksCtx(ctx, points, opts, 0, func(_ int, chunk []Result) error {
		results = chunk // one chunk spans the whole grid, so nothing reuses it
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// SweepChunksCtx evaluates the grid chunk by chunk, calling emit after
// each chunk completes with the chunk's starting point index and its
// results. It is the streaming seam under /v1/sweep: the first chunk is
// emitted as soon as it finishes, long before the last shard of a large
// grid runs. chunk <= 0 sweeps the whole grid as one chunk. The results
// slice passed to emit is reused across chunks — emit must encode or
// copy, never retain it. Errors keep sweep semantics per chunk: the
// lowest-indexed failing point aborts the stream, its index global to
// the grid. A non-nil error from emit aborts the sweep.
func (e *Engine) SweepChunksCtx(ctx context.Context, points []Point, opts SweepOptions, chunk int, emit func(start int, results []Result) error) error {
	if len(points) == 0 {
		return nil
	}
	if chunk <= 0 || chunk > len(points) {
		chunk = len(points)
	}
	results := make([]Result, chunk)
	errs := make([]error, chunk)
	for start := 0; start < len(points); start += chunk {
		end := start + chunk
		if end > len(points) {
			end = len(points)
		}
		n := end - start
		if err := e.sweepInto(ctx, points[start:end], results[:n], errs[:n], opts); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		for i, err := range errs[:n] {
			if err != nil {
				return fmt.Errorf("engine: sweep point %d: %w", start+i, err)
			}
		}
		if err := emit(start, results[:n]); err != nil {
			return err
		}
	}
	return nil
}

// sweepInto shards points across workers with an atomic cursor, writing
// into caller-owned results/errs slices (len(points) each) so chunked
// sweeps can reuse their buffers.
func (e *Engine) sweepInto(ctx context.Context, points []Point, results []Result, errs []error, opts SweepOptions) error {
	workers, err := sim.WorkerCount(opts.Workers, len(points))
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tables := new(exactTables) // owned by this worker
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= len(points) {
					return
				}
				results[i], errs[i] = e.evaluate(ctx, points[i].Instance, points[i].Rule, opts.Backend, opts.Sim, tables)
			}
		}()
	}
	wg.Wait()
	return nil
}
