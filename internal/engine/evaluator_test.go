package engine

import (
	"context"
	"testing"

	"repro/internal/oblivious"
	"repro/internal/obs"
)

// TestSweepHeteroObliviousOverrideBitIdentical checks the sweep's reusable
// evaluator path: a heterogeneous α sweep routes every point through a
// per-worker oblivious.Evaluator, and because the evaluator is bit-identical
// to the one-shot path, every result — and every memoized entry — carries
// exactly the one-shot bits.
func TestSweepHeteroObliviousOverrideBitIdentical(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Obs: obs.New(reg, nil)})
	pi := []float64{0.5, 1, 0.75, 0.9, 1}
	inst := mustInstancePi(t, 5, 1.25, pi)

	alphas := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	points := make([]Point, 0, len(alphas)+1)
	for _, a := range alphas {
		points = append(points, Point{Instance: inst, Rule: SymmetricOblivious{A: a}})
	}
	// A full-vector rule rides the same sweep: the reusable tables handle
	// any rule exposing its α-vector, not just the symmetric ones.
	full := Oblivious{Alphas: []float64{0.15, 0.35, 0.55, 0.75, 0.95}}
	points = append(points, Point{Instance: inst, Rule: full})

	results, err := e.Sweep(context.Background(), points, SweepOptions{Backend: Exact, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range alphas {
		want, err := oblivious.WinningProbabilityPi([]float64{a, a, a, a, a}, pi, inst.Delta, nil)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].P != want {
			t.Errorf("α=%v: sweep %v != one-shot %v (must be bit-identical)", a, results[i].P, want)
		}
		if results[i].Backend != Exact {
			t.Errorf("α=%v: backend %v, want exact", a, results[i].Backend)
		}
	}
	wantFull, err := oblivious.WinningProbabilityPi(full.Alphas, pi, inst.Delta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[len(alphas)].P != wantFull {
		t.Errorf("vector point: sweep %v != one-shot %v", results[len(alphas)].P, wantFull)
	}

	// Table-served results memoize under the normal keys: a repeated sweep
	// is 100% cache hits with identical bits.
	again, err := e.Sweep(context.Background(), points, SweepOptions{Backend: Exact, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if !again[i].Cached {
			t.Errorf("point %d not served from cache on repeat", i)
		}
		if again[i].P != results[i].P {
			t.Errorf("point %d: cached %v != first %v", i, again[i].P, results[i].P)
		}
	}
}

// TestSweepOverrideFactoryGating enumerates the sweep shapes: workers keep
// exact tables exactly when every point shares one heterogeneous instance,
// every rule is an oblivious or threshold rule, the backend is Exact or
// Auto, and there are at least two points.
func TestSweepOverrideFactoryGating(t *testing.T) {
	het := mustInstancePi(t, 3, 1, []float64{0.5, 1, 0.75})
	het2 := mustInstancePi(t, 3, 1, []float64{0.6, 1, 0.75})
	hom := Instance{N: 3, Delta: 1}
	obl := func(inst Instance, a float64) Point {
		return Point{Instance: inst, Rule: SymmetricOblivious{A: a}}
	}
	thr := func(inst Instance, b float64) Point {
		return Point{Instance: inst, Rule: SymmetricThreshold{Beta: b}}
	}
	ivl := Point{Instance: het, Rule: IntervalRule{}}
	cases := []struct {
		name    string
		points  []Point
		backend Backend
		want    bool
	}{
		{"qualifying", []Point{obl(het, 0.3), obl(het, 0.5)}, Exact, true},
		{"qualifying auto", []Point{obl(het, 0.3), obl(het, 0.5)}, Auto, true},
		{"threshold rules", []Point{thr(het, 0.3), {Instance: het, Rule: Threshold{Thresholds: []float64{0.2, 0.4, 0.6}}}}, Exact, true},
		{"oblivious and threshold rules", []Point{obl(het, 0.3), thr(het, 0.5)}, Exact, true},
		{"monte carlo", []Point{obl(het, 0.3), obl(het, 0.5)}, MonteCarlo, false},
		{"single point", []Point{obl(het, 0.3)}, Exact, false},
		{"homogeneous", []Point{obl(hom, 0.3), obl(hom, 0.5)}, Exact, false},
		{"mixed instances", []Point{obl(het, 0.3), obl(het2, 0.5)}, Exact, false},
		{"rule without tables", []Point{obl(het, 0.3), ivl}, Exact, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := sweepUsesTables(c.points, c.backend); got != c.want {
				t.Errorf("sweepUsesTables = %v, want %v", got, c.want)
			}
		})
	}
}

// oneShotVectorFamily is ThresholdVectorFamily under another type: the
// optimizer reuses tables only for ThresholdVectorFamily itself, so this
// family probes through the one-shot exact path.
type oneShotVectorFamily struct{ ThresholdVectorFamily }

// TestOptimizeVectorTableReuse compares the vector search with and without
// the per-search reusable evaluator: the reused search must record delta
// updates, and both searches must land on the same optimum well within the
// exact backend's certified drift.
func TestOptimizeVectorTableReuse(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Obs: obs.New(reg, nil)})
	inst := Instance{N: 4, Delta: 4.0 / 3}

	reused, err := e.OptimizeCtx(context.Background(), inst, ThresholdVectorFamily{}, OptimizeOptions{Backend: Exact})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := New(Config{}).OptimizeCtx(context.Background(), inst, oneShotVectorFamily{}, OptimizeOptions{Backend: Exact})
	if err != nil {
		t.Fatal(err)
	}

	if reused.DeltaUpdates == 0 {
		t.Error("table-reuse search recorded no delta updates")
	}
	if baseline.DeltaUpdates != 0 {
		t.Errorf("one-shot search recorded %d delta updates", baseline.DeltaUpdates)
	}
	if du := reg.Counter("exact.delta.updates").Value(); du != int64(reused.DeltaUpdates) {
		t.Errorf("exact.delta.updates counter %d != result DeltaUpdates %d", du, reused.DeltaUpdates)
	}
	if len(reused.Params) != inst.N {
		t.Fatalf("got %d params, want %d", len(reused.Params), inst.N)
	}
	for i := range reused.Params {
		if d := reused.Params[i] - baseline.Params[i]; d > 1e-6 || d < -1e-6 {
			t.Errorf("param %d: reuse %v vs baseline %v", i, reused.Params[i], baseline.Params[i])
		}
	}
	if d := reused.Value - baseline.Value; d > 1e-9 || d < -1e-9 {
		t.Errorf("value: reuse %v vs baseline %v", reused.Value, baseline.Value)
	}
	if reused.Backend != Exact || baseline.Backend != Exact {
		t.Errorf("backends %v/%v, want exact", reused.Backend, baseline.Backend)
	}

	// The canonical re-evaluation lands the optimum in the memo cache under
	// the one-shot key: evaluating the returned rule again must hit.
	res, err := e.Evaluate(inst, reused.Rule, Exact)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("optimum not memoized by the canonical re-evaluation")
	}
	if res.P != reused.Value {
		t.Errorf("memoized %v != reported optimum %v (canonicalization must store one-shot bits)", res.P, reused.Value)
	}
}

// TestOptimizeParallelTableReuseDeterministic runs the same vector search
// concurrently against one shared engine: probe values must never depend on
// cache state, so every search walks the same trajectory bit for bit.
func TestOptimizeParallelTableReuseDeterministic(t *testing.T) {
	e := New(Config{})
	inst := Instance{N: 3, Delta: 1}
	const searches = 4
	results := make([]OptimizeResult, searches)
	errs := make([]error, searches)
	done := make(chan int, searches)
	for g := 0; g < searches; g++ {
		go func(g int) {
			results[g], errs[g] = e.OptimizeCtx(context.Background(), inst, ThresholdVectorFamily{}, OptimizeOptions{Backend: Exact})
			done <- g
		}(g)
	}
	for i := 0; i < searches; i++ {
		<-done
	}
	for g := 0; g < searches; g++ {
		if errs[g] != nil {
			t.Fatalf("search %d: %v", g, errs[g])
		}
		if results[g].Value != results[0].Value {
			t.Errorf("search %d: value %v != search 0 %v (must be bit-identical)", g, results[g].Value, results[0].Value)
		}
		for i := range results[g].Params {
			if results[g].Params[i] != results[0].Params[i] {
				t.Errorf("search %d param %d: %v != %v", g, i, results[g].Params[i], results[0].Params[i])
			}
		}
	}
}
