package oblivious

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestEvaluatorBitIdenticalToOneShot requires every evaluator path — full
// refresh, SetCoord, repeated reuse — to return exactly the bits of
// WinningProbabilityPi, the property that lets engine sweeps memoize
// evaluator results under the one-shot cache keys.
func TestEvaluatorBitIdenticalToOneShot(t *testing.T) {
	rng := rand.New(rand.NewPCG(64, 1))
	for _, n := range []int{2, 5, 9} {
		capacity := float64(n) / 3
		pi := make([]float64, n)
		for i := range pi {
			pi[i] = 0.5 + rng.Float64()*1.5
		}
		ev, err := NewEvaluator(pi, capacity, 1)
		if err != nil {
			t.Fatal(err)
		}
		alphas := make([]float64, n)
		for i := range alphas {
			alphas[i] = rng.Float64()
		}
		check := func(label string, got float64) {
			t.Helper()
			want, err := WinningProbabilityPi(alphas, pi, capacity, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d %s: evaluator %x, one-shot %x",
					n, label, math.Float64bits(got), math.Float64bits(want))
			}
		}
		got, err := ev.Evaluate(alphas)
		if err != nil {
			t.Fatal(err)
		}
		check("initial", got)
		// 200-step random coordinate walk through SetCoord.
		for step := 0; step < 200; step++ {
			i := rng.IntN(n)
			alphas[i] = rng.Float64()
			got, err := ev.SetCoord(i, alphas[i])
			if err != nil {
				t.Fatal(err)
			}
			check("walk", got)
		}
		// Full-vector refreshes through Evaluate.
		for trial := 0; trial < 5; trial++ {
			for i := range alphas {
				alphas[i] = rng.Float64()
			}
			got, err := ev.Evaluate(alphas)
			if err != nil {
				t.Fatal(err)
			}
			check("refresh", got)
		}
		stats := ev.Stats()
		if stats.FullRebuilds == 0 {
			t.Errorf("n=%d: counters empty after walk: %+v", n, stats)
		}
	}
}

// TestEvaluatorSteadyStateAllocs pins steady-state Evaluate and SetCoord
// at zero allocations per operation.
func TestEvaluatorSteadyStateAllocs(t *testing.T) {
	const n = 8
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 0.5 + float64(i)*0.1
	}
	ev, err := NewEvaluator(pi, float64(n)/3, 1)
	if err != nil {
		t.Fatal(err)
	}
	alphas := make([]float64, n)
	for i := range alphas {
		alphas[i] = float64(i+1) / float64(n+1)
	}
	if _, err := ev.Evaluate(alphas); err != nil {
		t.Fatal(err)
	}
	other := make([]float64, n)
	for i := range other {
		other[i] = 1 - alphas[i]
	}
	swap := false
	if got := testing.AllocsPerRun(20, func() {
		swap = !swap
		v := alphas
		if swap {
			v = other
		}
		if _, err := ev.Evaluate(v); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Evaluate: %v allocs/op, want 0", got)
	}
	flip := 0.25
	if got := testing.AllocsPerRun(20, func() {
		flip = 0.75 - flip
		if _, err := ev.SetCoord(3, flip); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("SetCoord: %v allocs/op, want 0", got)
	}
}

// TestEvaluatorErrors covers the construction and input guards.
func TestEvaluatorErrors(t *testing.T) {
	if _, err := NewEvaluator([]float64{1.5}, 1, 1); err == nil {
		t.Error("single player accepted")
	}
	if _, err := NewEvaluator([]float64{1, 1, 1}, 1, 1); err == nil {
		t.Error("homogeneous π accepted")
	}
	if _, err := NewEvaluator([]float64{1, -2}, 1, 1); err == nil {
		t.Error("negative π accepted")
	}
	if _, err := NewEvaluator([]float64{1, math.Inf(1)}, 1, 1); err == nil {
		t.Error("infinite π accepted")
	}
	if _, err := NewEvaluator([]float64{1, 2}, -1, 1); err == nil {
		t.Error("negative capacity accepted")
	}
	pi := make([]float64, MaxNHetero+1)
	for i := range pi {
		pi[i] = 2
	}
	if _, err := NewEvaluator(pi, 1, 1); err == nil {
		t.Error("over-cap n accepted")
	}
	ev, err := NewEvaluator([]float64{0.5, 2}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.SetCoord(0, 0.5); err == nil {
		t.Error("SetCoord before Evaluate accepted")
	}
	if _, err := ev.Evaluate([]float64{0.5}); err == nil {
		t.Error("wrong-length α accepted")
	}
	if _, err := ev.Evaluate([]float64{0.5, math.NaN()}); err == nil {
		t.Error("NaN α accepted")
	}
	if _, err := ev.Evaluate([]float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.SetCoord(2, 0.5); err == nil {
		t.Error("out-of-range coordinate accepted")
	}
	if _, err := ev.SetCoord(0, 1.5); err == nil {
		t.Error("α above 1 accepted")
	}
}

// FuzzEvaluatorSetCoord feeds hostile coordinate updates and requires an
// error (never a panic) on invalid input and bit-identity with the
// one-shot evaluator on valid input.
func FuzzEvaluatorSetCoord(f *testing.F) {
	f.Add(0, 0.5)
	f.Add(-3, 0.25)
	f.Add(9, 2.0)
	f.Add(1, math.NaN())
	f.Add(2, math.Inf(-1))
	f.Fuzz(func(t *testing.T, i int, a float64) {
		pi := []float64{0.5, 1.25, 2}
		capacity := 1.0
		ev, err := NewEvaluator(pi, capacity, 1)
		if err != nil {
			t.Fatal(err)
		}
		alphas := []float64{0.25, 0.5, 0.75}
		if _, err := ev.Evaluate(alphas); err != nil {
			t.Fatal(err)
		}
		got, err := ev.SetCoord(i, a)
		if err != nil {
			return
		}
		if i < 0 || i >= len(pi) || math.IsNaN(a) || a < 0 || a > 1 {
			t.Fatalf("SetCoord(%d, %v) accepted invalid input", i, a)
		}
		alphas[i] = a
		want, err := WinningProbabilityPi(alphas, pi, capacity, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("SetCoord(%d, %v) = %x, one-shot %x", i, a, math.Float64bits(got), math.Float64bits(want))
		}
	})
}
