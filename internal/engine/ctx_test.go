package engine

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

// slowExactRule is an ExactOpts rule whose oracle blocks until released,
// standing in for a large-n exact evaluation in deadline tests.
type slowExactRule struct {
	release chan struct{}
	value   float64
}

func (r *slowExactRule) Name() string        { return "slow-exact" }
func (r *slowExactRule) Fingerprint() string { return "slow-exact" }
func (r *slowExactRule) System(Instance) (*model.System, error) {
	return nil, ErrNoSystem
}
func (r *slowExactRule) ExactWinProbabilityOpts(Instance, int, *obs.Observer) (float64, error) {
	<-r.release
	return r.value, nil
}

// TestEvaluateCtxDeadline exercises the deadline-bounded wait: an expired
// context abandons the in-flight exact evaluation (ctx.Err() comes back,
// the abandoned counter bumps) while the computation finishes in the
// background and warms the cache for the next caller.
func TestEvaluateCtxDeadline(t *testing.T) {
	o := obs.New(obs.NewRegistry(), nil)
	eng := New(Config{Obs: o})
	inst := mustInstance(t, 3, 1)
	rule := &slowExactRule{release: make(chan struct{}), value: 0.25}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := eng.EvaluateWithCtx(ctx, inst, rule, Exact, sim.Config{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EvaluateWithCtx error = %v, want context.DeadlineExceeded", err)
	}
	if got := o.Counter("engine.evals.abandoned").Value(); got != 1 {
		t.Errorf("engine.evals.abandoned = %d, want 1", got)
	}

	// Release the oracle; the background computation must land in the
	// cache so a later caller gets a (cached) result without recomputing.
	close(rule.release)
	deadline := time.Now().Add(2 * time.Second)
	for eng.CacheLen() == 0 || o.Counter("engine.evals.exact").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background computation never completed")
		}
		time.Sleep(time.Millisecond)
	}
	res, err := eng.Evaluate(inst, rule, Exact)
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 0.25 {
		t.Errorf("P = %v, want 0.25", res.P)
	}
	if !res.Cached {
		t.Error("second call should be served from the cache warmed by the abandoned computation")
	}
	if got := o.Counter("engine.evals.exact").Value(); got != 1 {
		t.Errorf("engine.evals.exact = %d, want 1 (no recomputation)", got)
	}
}

// TestEvaluateCtxSpanTree checks span parenting: a span riding the
// context yields engine.evaluate → backend.exact children on a miss and a
// cached=1 annotation on a hit.
func TestEvaluateCtxSpanTree(t *testing.T) {
	var buf bytes.Buffer
	o := obs.New(obs.NewRegistry(), obs.NewSink(&buf))
	eng := New(Config{Obs: o})
	inst := mustInstance(t, 3, 1)
	rule := SymmetricThreshold{Beta: 0.5}

	root, ctx := o.StartSpanCtx(context.Background(), "handler")
	if _, err := eng.EvaluateWithCtx(ctx, inst, rule, Exact, sim.Config{}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.EvaluateWithCtx(ctx, inst, rule, Exact, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("second evaluation should be cached")
	}
	root.End()

	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	starts := map[string][]obs.Event{}
	var cachedEnds int
	for _, ev := range events {
		if ev.Type == obs.EventSpanStart {
			starts[ev.Name] = append(starts[ev.Name], ev)
		}
		if ev.Type == obs.EventSpanEnd && ev.Name == "engine.evaluate" && ev.Attrs["cached"] == 1 {
			cachedEnds++
		}
	}
	if len(starts["engine.evaluate"]) != 2 {
		t.Fatalf("engine.evaluate spans = %d, want 2", len(starts["engine.evaluate"]))
	}
	if len(starts["backend.exact"]) != 1 {
		t.Fatalf("backend.exact spans = %d, want 1 (hit must not recompute)", len(starts["backend.exact"]))
	}
	rootID := starts["handler"][0].Span
	for _, ev := range starts["engine.evaluate"] {
		if ev.Parent != rootID {
			t.Errorf("engine.evaluate parent = %d, want handler span %d", ev.Parent, rootID)
		}
	}
	if got, want := starts["backend.exact"][0].Parent, starts["engine.evaluate"][0].Span; got != want {
		t.Errorf("backend.exact parent = %d, want first engine.evaluate span %d", got, want)
	}
	if cachedEnds != 1 {
		t.Errorf("cached=1 span_end annotations = %d, want 1", cachedEnds)
	}
}

// TestEvaluateCoalescedCounter checks that concurrent identical
// evaluations joining an in-flight computation are counted as coalesced
// (as well as hits), while plain warm hits are not.
func TestEvaluateCoalescedCounter(t *testing.T) {
	o := obs.New(obs.NewRegistry(), nil)
	eng := New(Config{Obs: o})
	inst := mustInstance(t, 3, 1)
	rule := &slowExactRule{release: make(chan struct{}), value: 0.5}

	const joiners = 4
	var wg sync.WaitGroup
	for i := 0; i < joiners+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Evaluate(inst, rule, Exact); err != nil {
				t.Error(err)
			}
		}()
	}
	// Wait until every goroutine is either computing or parked in
	// once.Do, then release the oracle.
	time.Sleep(20 * time.Millisecond)
	close(rule.release)
	wg.Wait()

	coalesced := o.Counter("engine.cache.coalesced").Value()
	hits := o.Counter("engine.cache.hits").Value()
	if hits != joiners {
		t.Errorf("engine.cache.hits = %d, want %d", hits, joiners)
	}
	if coalesced == 0 || coalesced > joiners {
		t.Errorf("engine.cache.coalesced = %d, want in [1, %d]", coalesced, joiners)
	}
	// A warm hit after completion is a hit but not a coalesce.
	if _, err := eng.Evaluate(inst, rule, Exact); err != nil {
		t.Fatal(err)
	}
	if got := o.Counter("engine.cache.coalesced").Value(); got != coalesced {
		t.Errorf("warm hit bumped coalesced: %d -> %d", coalesced, got)
	}
}

// TestSweepCtxCancel checks that a cancelled context aborts a sweep with
// the context's error.
func TestSweepCtxCancel(t *testing.T) {
	eng := New(Config{})
	inst := mustInstance(t, 3, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := []Point{{Instance: inst, Rule: SymmetricThreshold{Beta: 0.3}}}
	if _, err := eng.Sweep(ctx, pts, SweepOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep error = %v, want context.Canceled", err)
	}
	cfg := sim.Config{}
	_ = cfg // keep sim imported for future config-sensitive cases
}
