package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// newDiskEngine builds an engine over a disk-tiered store rooted at dir,
// returning the registry its counters land in.
func newDiskEngine(t *testing.T, dir string) (*Engine, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	o := obs.New(reg, nil)
	st, err := store.New(store.Options{Dir: dir, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{Obs: o, Store: st}), reg
}

// TestDiskWarmRestart is the tentpole contract: a second engine opened on
// the same cache directory serves a previously-computed exact result from
// disk — Cached=true, zero engine.evals.exact, bit-identical value.
func TestDiskWarmRestart(t *testing.T) {
	dir := t.TempDir()
	inst := mustInstance(t, 3, 1)
	rule := SymmetricThreshold{Beta: 0.6220355269907728}

	e1, reg1 := newDiskEngine(t, dir)
	cold, err := e1.Evaluate(inst, rule, Exact)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Error("cold evaluation claims to be cached")
	}
	if got := reg1.Counter("store.disk.writes").Value(); got != 1 {
		t.Errorf("store.disk.writes = %d, want 1", got)
	}

	// "Restart": a fresh engine and store over the same directory.
	e2, reg2 := newDiskEngine(t, dir)
	warm, err := e2.Evaluate(inst, rule, Exact)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Error("warm-restart evaluation not served as cached")
	}
	if warm.P != cold.P || warm.Backend != cold.Backend {
		t.Errorf("disk round trip changed bits: %+v vs %+v", warm, cold)
	}
	if got := reg2.Counter("engine.evals.exact").Value(); got != 0 {
		t.Errorf("engine.evals.exact = %d after warm restart, want 0", got)
	}
	if got := reg2.Counter("engine.cache.hits").Value(); got != 1 {
		t.Errorf("engine.cache.hits = %d, want 1", got)
	}
	if got := reg2.Counter("engine.cache.misses").Value(); got != 0 {
		t.Errorf("engine.cache.misses = %d, want 0", got)
	}
	if got := reg2.Counter("store.disk.hits").Value(); got != 1 {
		t.Errorf("store.disk.hits = %d, want 1", got)
	}
}

// TestDiskRoundTripMC checks that a Monte-Carlo result — including its
// full sim.Result payload — survives the disk encoding, so a restarted
// engine returns the same bits the original simulation produced.
func TestDiskRoundTripMC(t *testing.T) {
	dir := t.TempDir()
	inst := mustInstance(t, 3, 1)
	rule := SymmetricThreshold{Beta: 0.5}
	cfg := sim.Config{Trials: 5000, Seed: 11, Workers: 2}

	e1, _ := newDiskEngine(t, dir)
	cold, err := e1.EvaluateWithCtx(context.Background(), inst, rule, MonteCarlo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := newDiskEngine(t, dir)
	warm, err := e2.EvaluateWithCtx(context.Background(), inst, rule, MonteCarlo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Error("warm-restart MC evaluation not served as cached")
	}
	if warm.P != cold.P || warm.StdErr != cold.StdErr {
		t.Errorf("P/StdErr changed across restart: %+v vs %+v", warm, cold)
	}
	if warm.Sim == nil {
		t.Fatal("Sim payload lost across restart")
	}
	if warm.Sim.Wins != cold.Sim.Wins || warm.Sim.Trials != cold.Sim.Trials {
		t.Errorf("sim payload changed across restart: %+v vs %+v", warm.Sim, cold.Sim)
	}
}

// TestBoundedStoreEvicts wires a size-bounded store into the engine and
// checks that the cache stays within its bound while evictions are
// counted — and that evaluations still return correct values throughout.
func TestBoundedStoreEvicts(t *testing.T) {
	reg := obs.NewRegistry()
	o := obs.New(reg, nil)
	e := New(Config{Obs: o, Store: store.NewMemory(store.Options{MaxEntries: 2, Obs: o})})
	inst := mustInstance(t, 3, 1)
	for _, beta := range []float64{0.3, 0.4, 0.5, 0.6} {
		if _, err := e.Evaluate(inst, SymmetricThreshold{Beta: beta}, Exact); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.CacheLen(); n > 2 {
		t.Errorf("bounded cache holds %d entries, want <= 2", n)
	}
	if got := reg.Counter("store.evictions").Value(); got != 2 {
		t.Errorf("store.evictions = %d, want 2", got)
	}
}

// TestSweepChunksCtx checks the streaming seam: chunked results agree
// bit-for-bit with a whole-grid sweep, chunks arrive in order with
// correct global offsets, and the reused buffer forces emit to copy.
func TestSweepChunksCtx(t *testing.T) {
	e := New(Config{})
	inst := mustInstance(t, 3, 1)
	betas := []float64{0.3, 0.4, 0.5, 0.6, 0.622}
	points := make([]Point, len(betas))
	for i, b := range betas {
		points[i] = Point{Instance: inst, Rule: SymmetricThreshold{Beta: b}}
	}
	opts := SweepOptions{Backend: Exact, Workers: 2}

	want, err := e.Sweep(context.Background(), points, opts)
	if err != nil {
		t.Fatal(err)
	}

	var starts []int
	got := make([]Result, 0, len(points))
	err = e.SweepChunksCtx(context.Background(), points, opts, 2, func(start int, results []Result) error {
		starts = append(starts, start)
		got = append(got, results...) // copy: the slice is reused
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 3 || starts[0] != 0 || starts[1] != 2 || starts[2] != 4 {
		t.Errorf("chunk starts = %v, want [0 2 4]", starts)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].P != want[i].P {
			t.Errorf("point %d: streamed P=%v, sweep P=%v", i, got[i].P, want[i].P)
		}
	}

	// A failing point aborts with its global index.
	bad := append(append([]Point(nil), points...), Point{Instance: inst, Rule: Threshold{Thresholds: []float64{0.5}}})
	err = e.SweepChunksCtx(context.Background(), bad, SweepOptions{Backend: Exact}, 2, func(int, []Result) error { return nil })
	if err == nil {
		t.Fatal("expected error from invalid point")
	}
	if want := "sweep point 5"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name global point index (%q)", err, want)
	}
}
