package optimize

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/obs"
)

// TestGoldenSectionObserved checks the recorded metrics against the
// returned result and the event trace's bracket contraction.
func TestGoldenSectionObserved(t *testing.T) {
	var buf bytes.Buffer
	o := obs.New(obs.NewRegistry(), obs.NewSink(&buf))
	f := func(x float64) float64 { return -(x - 0.3) * (x - 0.3) }
	res, err := GoldenSectionMax(o, f, 0, 1, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X-0.3) > 1e-6 {
		t.Errorf("X = %v, want ≈ 0.3", res.X)
	}
	if res.Iterations <= 0 {
		t.Error("no iterations recorded in result")
	}
	if got := o.Counter("opt.golden.evals").Value(); got != int64(res.Evals) {
		t.Errorf("opt.golden.evals = %d, want %d", got, res.Evals)
	}
	if got := o.Counter("opt.golden.iterations").Value(); got != int64(res.Iterations) {
		t.Errorf("opt.golden.iterations = %d, want %d", got, res.Iterations)
	}
	if w := o.Gauge("opt.golden.bracket_width").Value(); !(w > 0 && w <= 1e-8) {
		t.Errorf("final bracket width %v not within tolerance", w)
	}

	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sum := obs.Summarize(events)
	if len(sum.Checkpoints) != 1 || sum.Checkpoints[0].Name != "opt.golden_section" {
		t.Fatalf("checkpoint streams: %+v", sum.Checkpoints)
	}
	pts := sum.Checkpoints[0].Points
	if len(pts) != res.Iterations {
		t.Errorf("trace has %d iterations, result says %d", len(pts), res.Iterations)
	}
	prev := math.Inf(1)
	for i, p := range pts {
		w := p.Attrs["width"]
		if w >= prev {
			t.Errorf("iteration %d: bracket width %v did not shrink from %v", i, w, prev)
		}
		prev = w
	}
}

// TestObservedVariantsMatchPlain pins that an enabled observer never
// changes a search: each entry point returns the same result with a nil
// observer and with an enabled one.
func TestObservedVariantsMatchPlain(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(3*x) - 0.2*x }
	g := func(x []float64) float64 { return -(x[0]-0.3)*(x[0]-0.3) - (x[1]-0.6)*(x[1]-0.6) - 0.5*x[0]*x[1] }
	lo, hi := []float64{0, 0}, []float64{1, 1}
	o := obs.New(obs.NewRegistry(), nil)
	plain, err := GridThenGoldenMax(nil, f, 0, 2, 41, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := GridThenGoldenMax(o, f, 0, 2, 41, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if plain != observed {
		t.Errorf("observability changed the optimization: %+v vs %+v", plain, observed)
	}
	if o.Counter("opt.grid.evals").Value() != 41 {
		t.Errorf("opt.grid.evals = %d, want 41", o.Counter("opt.grid.evals").Value())
	}
	ca1, err1 := CoordinateAscentBox(nil, g, []float64{0.5, 0.5}, lo, hi, 20, 1e-10)
	ca2, err2 := CoordinateAscentBox(o, g, []float64{0.5, 0.5}, lo, hi, 20, 1e-10)
	if err1 != nil || err2 != nil || !sameVector(ca1, ca2) {
		t.Errorf("CoordinateAscentBox: plain %+v (%v), observed %+v (%v)", ca1, err1, ca2, err2)
	}
	nm1, err1 := NelderMeadMax(nil, g, []float64{0.5, 0.5}, lo, hi, 0.1, 500, 1e-12)
	nm2, err2 := NelderMeadMax(o, g, []float64{0.5, 0.5}, lo, hi, 0.1, 500, 1e-12)
	if err1 != nil || err2 != nil || !sameVector(nm1, nm2) {
		t.Errorf("NelderMeadMax: plain %+v (%v), observed %+v (%v)", nm1, err1, nm2, err2)
	}
	if o.Counter("opt.coord.passes").Value() <= 0 || o.Counter("opt.nm.iterations").Value() <= 0 {
		t.Error("vector searches recorded no passes or iterations")
	}
}

func sameVector(a, b VectorResult) bool {
	if a.Value != b.Value || a.Iterations != b.Iterations || len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			return false
		}
	}
	return true
}
