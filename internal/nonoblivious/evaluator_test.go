package nonoblivious

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
)

// TestEvaluatorEvaluateBitIdentical pins the evaluator's full path against
// WinningProbability bit for bit across repeated reuse of the same
// tables.
func TestEvaluatorEvaluateBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(63, 1))
	for _, n := range []int{2, 5, 9, 12} {
		capacity := float64(n) / 3
		ev, err := NewEvaluator(n, capacity)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			ths := make([]float64, n)
			for i := range ths {
				ths[i] = rng.Float64()
			}
			want, err := WinningProbability(ths, capacity, nil)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			got, err := ev.Evaluate(ths)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d trial %d: evaluator %x, WinningProbability %x",
					n, trial, math.Float64bits(got), math.Float64bits(want))
			}
			if math.Float64bits(ev.Value()) != math.Float64bits(want) {
				t.Errorf("n=%d trial %d: committed value drifted", n, trial)
			}
		}
	}
}

// TestEvaluatorCoordinateWalk drives a 200-step random coordinate walk of
// SetCoord commits and requires every step to carry the bits of a fresh
// WinningProbability.
func TestEvaluatorCoordinateWalk(t *testing.T) {
	rng := rand.New(rand.NewPCG(63, 2))
	for _, n := range []int{2, 6, 10} {
		capacity := float64(n) / 3
		ev, err := NewEvaluator(n, capacity)
		if err != nil {
			t.Fatal(err)
		}
		ths := make([]float64, n)
		for i := range ths {
			ths[i] = rng.Float64()
		}
		if _, err := ev.Evaluate(ths); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 200; step++ {
			i := rng.IntN(n)
			ths[i] = rng.Float64()
			got, err := ev.SetCoord(i, ths[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := WinningProbability(ths, capacity, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d step %d: SetCoord %x, WinningProbability %x",
					n, step, math.Float64bits(got), math.Float64bits(want))
			}
		}
		if stats := ev.Stats(); stats.FullRebuilds != 201 || stats.DeltaUpdates != 0 {
			t.Errorf("n=%d: want 201 rebuilds and no profile probes after the walk: %+v", n, stats)
		}
	}
}

// TestEvaluatorCommitsPastProfileCap checks that beyond MaxNProfile a
// single-coordinate EvaluateVector is a committed rebuild carrying the
// bits of WinningProbability.
func TestEvaluatorCommitsPastProfileCap(t *testing.T) {
	rng := rand.New(rand.NewPCG(63, 6))
	const n = MaxNProfile + 1
	capacity := float64(n) / 3
	ev, err := NewEvaluator(n, capacity)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	if _, err := ev.Evaluate(x); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		x[rng.IntN(n)] = rng.Float64()
		got, err := ev.EvaluateVector(x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := WinningProbability(x, capacity, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: EvaluateVector %x, WinningProbability %x",
				step, math.Float64bits(got), math.Float64bits(want))
		}
		for i, a := range ev.Thresholds() {
			if a != x[i] {
				t.Fatalf("step %d: committed threshold %d = %v, want %v", step, i, a, x[i])
			}
		}
	}
	if stats := ev.Stats(); stats.DeltaUpdates != 0 {
		t.Errorf("n=%d served %d profile probes past the cap", n, stats.DeltaUpdates)
	}
}

// TestEvaluatorProfileMatchesRebuild probes single-coordinate lines
// through EvaluateVector — the non-committing profile path the optimizer's
// line searches hit — and checks each probe against a fresh rebuild, plus
// that the committed state stayed at the base vector.
func TestEvaluatorProfileMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewPCG(63, 3))
	for _, n := range []int{2, 3, 6, 10} {
		capacity := float64(n) / 3
		bound := ExactErrorBound(n, capacity, 1)
		ev, err := NewEvaluator(n, capacity)
		if err != nil {
			t.Fatal(err)
		}
		base := make([]float64, n)
		for i := range base {
			base[i] = rng.Float64()
		}
		committed, err := ev.Evaluate(base)
		if err != nil {
			t.Fatal(err)
		}
		probe := make([]float64, n)
		for line := 0; line < 2*n; line++ {
			i := rng.IntN(n)
			for p := 0; p < 10; p++ {
				copy(probe, base)
				probe[i] = rng.Float64()
				got, err := ev.EvaluateVector(probe)
				if err != nil {
					t.Fatal(err)
				}
				want, err := WinningProbability(probe, capacity, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(got - want); d > bound {
					t.Fatalf("n=%d line %d coord %d probe %v: profile %v vs rebuild %v (|diff| %g exceeds bound %g)",
						n, line, i, probe[i], got, want, d, bound)
				}
			}
		}
		if math.Float64bits(ev.Value()) != math.Float64bits(committed) {
			t.Errorf("n=%d: probes moved the committed value", n)
		}
	}
}

// TestEvaluatorAscentPattern exercises the coordinate-ascent shape: probe
// a line, then commit its best by probing the next line with two
// coordinates changed (the profiled one plus the next), as the optimizer's
// closures do. Profile probes stay within ExactErrorBound of a rebuild;
// the two-coordinate commit is a rebuild and carries its bits.
func TestEvaluatorAscentPattern(t *testing.T) {
	rng := rand.New(rand.NewPCG(63, 4))
	const n = 7
	capacity := float64(n) / 3
	bound := ExactErrorBound(n, capacity, 1)
	ev, err := NewEvaluator(n, capacity)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	if _, err := ev.Evaluate(x); err != nil {
		t.Fatal(err)
	}
	probe := make([]float64, n)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < n; i++ {
			// Probe the line at coordinate i a few times.
			for p := 0; p < 5; p++ {
				copy(probe, x)
				probe[i] = rng.Float64()
				got, err := ev.EvaluateVector(probe)
				if err != nil {
					t.Fatal(err)
				}
				want, err := WinningProbability(probe, capacity, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(got - want); d > bound {
					t.Fatalf("pass %d line %d probe %d: %v vs %v (|diff| %g)", pass, i, p, got, want, d)
				}
			}
			// Commit a new value for i implicitly by probing line i+1 with
			// both coordinates changed.
			x[i] = rng.Float64()
			j := (i + 1) % n
			copy(probe, x)
			probe[j] = rng.Float64()
			got, err := ev.EvaluateVector(probe)
			if err != nil {
				t.Fatal(err)
			}
			want, err := WinningProbability(probe, capacity, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pass %d commit %d: %x vs %x", pass, i, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestEvaluatorMatchesRatOracle checks SetCoord-committed values against
// the exact rational oracle on random dyadic walks for every n ≤ 10.
func TestEvaluatorMatchesRatOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(63, 5))
	for n := 2; n <= 10; n++ {
		capF, capR := dyadicCapacity(n)
		bound := ExactErrorBound(n, capF, 1)
		ev, err := NewEvaluator(n, capF)
		if err != nil {
			t.Fatal(err)
		}
		ths := make([]float64, n)
		thsR := make([]*big.Rat, n)
		for i := range ths {
			ths[i], thsR[i] = dyadic64(rng, 0, 64)
		}
		if _, err := ev.Evaluate(ths); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 20; step++ {
			i := rng.IntN(n)
			ths[i], thsR[i] = dyadic64(rng, 0, 64)
			got, err := ev.SetCoord(i, ths[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := WinningProbabilityPiRat(thsR, nil, capR)
			if err != nil {
				t.Fatal(err)
			}
			wf, _ := want.Float64()
			if d := math.Abs(got - wf); d > bound {
				t.Fatalf("n=%d step %d: SetCoord %v vs oracle %v (|diff| %g exceeds bound %g)",
					n, step, got, wf, d, bound)
			}
		}
	}
}

// TestEvaluatorSteadyStateAllocs pins the steady-state paths at zero
// allocations per operation: full Evaluate reuse, SetCoord delta commits,
// and line-profile probes.
func TestEvaluatorSteadyStateAllocs(t *testing.T) {
	const n = 8
	capacity := float64(n) / 3
	ev, err := NewEvaluator(n, capacity)
	if err != nil {
		t.Fatal(err)
	}
	ths := make([]float64, n)
	for i := range ths {
		ths[i] = float64(i+1) / float64(n+1)
	}
	if _, err := ev.Evaluate(ths); err != nil {
		t.Fatal(err)
	}
	probe := make([]float64, n)
	copy(probe, ths)
	if got := testing.AllocsPerRun(20, func() {
		if _, err := ev.Evaluate(ths); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Evaluate: %v allocs/op, want 0", got)
	}
	flip := 0.25
	if got := testing.AllocsPerRun(20, func() {
		flip = 0.75 - flip
		if _, err := ev.SetCoord(2, flip); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("SetCoord: %v allocs/op, want 0", got)
	}
	copy(probe, ev.Thresholds())
	step := 0.0
	if got := testing.AllocsPerRun(20, func() {
		step += 0.01
		probe[5] = 0.3 + step
		if _, err := ev.EvaluateVector(probe); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("EvaluateVector profile probe: %v allocs/op, want 0", got)
	}
}

// TestEvaluatorErrors covers the guards: construction bounds, vector
// validation, and SetCoord misuse.
func TestEvaluatorErrors(t *testing.T) {
	if _, err := NewEvaluator(1, 1); err == nil {
		t.Error("NewEvaluator(1) accepted")
	}
	if _, err := NewEvaluator(MaxNGeneral+1, 1); err == nil {
		t.Error("NewEvaluator over cap accepted")
	}
	if _, err := NewEvaluator(3, math.NaN()); err == nil {
		t.Error("NaN capacity accepted")
	}
	ev, err := NewEvaluator(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.SetCoord(0, 0.5); err == nil {
		t.Error("SetCoord before Evaluate accepted")
	}
	if _, err := ev.Evaluate([]float64{0.5, 0.5}); err == nil {
		t.Error("wrong-length vector accepted")
	}
	if _, err := ev.Evaluate([]float64{0.5, 0.5, 1.5}); err == nil {
		t.Error("threshold above 1 accepted")
	}
	if _, err := ev.Evaluate([]float64{0.5, 0.5, math.NaN()}); err == nil {
		t.Error("NaN threshold accepted")
	}
	if _, err := ev.Evaluate([]float64{0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.SetCoord(-1, 0.5); err == nil {
		t.Error("SetCoord(-1) accepted")
	}
	if _, err := ev.SetCoord(3, 0.5); err == nil {
		t.Error("SetCoord out of range accepted")
	}
	if _, err := ev.SetCoord(0, -0.1); err == nil {
		t.Error("SetCoord below 0 accepted")
	}
	if _, err := ev.SetCoord(0, math.NaN()); err == nil {
		t.Error("SetCoord NaN accepted")
	}
}

// FuzzEvaluatorSetCoord feeds hostile coordinates and values — NaN,
// infinities, out-of-range indices, values outside [0, 1] — and requires
// the evaluator to reject them with an error (never a panic) while valid
// updates carry the bits of WinningProbability.
func FuzzEvaluatorSetCoord(f *testing.F) {
	f.Add(0, 0.5)
	f.Add(-1, 0.25)
	f.Add(4, 2.0)
	f.Add(2, math.NaN())
	f.Add(1, math.Inf(1))
	f.Add(3, -0.5)
	const n = 4
	capacity := 4.0 / 3
	f.Fuzz(func(t *testing.T, i int, v float64) {
		ev, err := NewEvaluator(n, capacity)
		if err != nil {
			t.Fatal(err)
		}
		ths := []float64{0.25, 0.5, 0.75, 0.375}
		if _, err := ev.Evaluate(ths); err != nil {
			t.Fatal(err)
		}
		got, err := ev.SetCoord(i, v)
		if err != nil {
			return // rejected, fine — must not panic
		}
		if i < 0 || i >= n || math.IsNaN(v) || v < 0 || v > 1 {
			t.Fatalf("SetCoord(%d, %v) accepted invalid input", i, v)
		}
		ths[i] = v
		want, err := WinningProbability(ths, capacity, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("SetCoord(%d, %v) = %x, WinningProbability %x", i, v, math.Float64bits(got), math.Float64bits(want))
		}
	})
}
