package optimize

import (
	"math"
	"testing"
)

func quadObjective(center []float64) func([]float64) float64 {
	return func(x []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - center[i]
			s -= d * d
		}
		return s
	}
}

func TestCoordinateAscentBoxQuadratic(t *testing.T) {
	center := []float64{0.3, 0.7, 0.5}
	f := quadObjective(center)
	res, err := CoordinateAscentBox(nil, f,
		[]float64{0.5, 0.5, 0.5},
		[]float64{0, 0, 0},
		[]float64{1, 1, 1},
		50, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range center {
		if math.Abs(res.X[i]-center[i]) > 1e-6 {
			t.Errorf("coordinate %d = %v, want %v", i, res.X[i], center[i])
		}
	}
	if math.Abs(res.Value) > 1e-10 {
		t.Errorf("max value = %v, want 0", res.Value)
	}
	if res.Iterations <= 0 {
		t.Error("Iterations should be positive")
	}
}

func TestCoordinateAscentBoxBoundaryOptimum(t *testing.T) {
	// Optimum outside the box: ascent should pin to the boundary.
	f := quadObjective([]float64{2, 2})
	res, err := CoordinateAscentBox(nil, f,
		[]float64{0.5, 0.5}, []float64{0, 0}, []float64{1, 1}, 50, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-1) > 1e-6 {
			t.Errorf("coordinate %d = %v, want 1 (boundary)", i, res.X[i])
		}
	}
}

func TestCoordinateAscentBoxValidation(t *testing.T) {
	f := quadObjective([]float64{0.5})
	ok := []float64{0.5}
	lo := []float64{0}
	hi := []float64{1}
	if _, err := CoordinateAscentBox(nil, nil, ok, lo, hi, 5, 1e-6); err == nil {
		t.Error("nil objective: expected error")
	}
	if _, err := CoordinateAscentBox(nil, f, nil, lo, hi, 5, 1e-6); err == nil {
		t.Error("empty start: expected error")
	}
	if _, err := CoordinateAscentBox(nil, f, ok, []float64{0, 0}, hi, 5, 1e-6); err == nil {
		t.Error("dimension mismatch: expected error")
	}
	if _, err := CoordinateAscentBox(nil, f, ok, lo, hi, 0, 1e-6); err == nil {
		t.Error("zero passes: expected error")
	}
	if _, err := CoordinateAscentBox(nil, f, ok, lo, hi, 5, 0); err == nil {
		t.Error("zero tolerance: expected error")
	}
	if _, err := CoordinateAscentBox(nil, f, []float64{2}, lo, hi, 5, 1e-6); err == nil {
		t.Error("start outside box: expected error")
	}
	if _, err := CoordinateAscentBox(nil, f, ok, []float64{1}, []float64{0}, 5, 1e-6); err == nil {
		t.Error("inverted bounds: expected error")
	}
}

func TestNelderMeadMaxQuadratic(t *testing.T) {
	center := []float64{0.25, 0.6}
	f := quadObjective(center)
	res, err := NelderMeadMax(nil, f,
		[]float64{0.9, 0.1},
		[]float64{0, 0}, []float64{1, 1},
		0.2, 2000, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	for i := range center {
		if math.Abs(res.X[i]-center[i]) > 1e-5 {
			t.Errorf("coordinate %d = %v, want %v", i, res.X[i], center[i])
		}
	}
}

func TestNelderMeadMaxRosenbrockStyle(t *testing.T) {
	// Maximize the negated Rosenbrock function (optimum at (1, 1)),
	// restricted to the box [0, 2]².
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return -(a*a + 100*b*b)
	}
	res, err := NelderMeadMax(nil, f, []float64{0.2, 0.2}, []float64{0, 0}, []float64{2, 2}, 0.3, 20000, 1e-15)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("argmax = %v, want (1, 1)", res.X)
	}
}

func TestNelderMeadMaxAgreesWithCoordinateAscent(t *testing.T) {
	// Smooth concave objective: both optimizers must agree.
	f := func(x []float64) float64 {
		return -(x[0]-0.4)*(x[0]-0.4) - 2*(x[1]-0.55)*(x[1]-0.55) - x[0]*x[1]*0.1
	}
	lo := []float64{0, 0}
	hi := []float64{1, 1}
	ca, err := CoordinateAscentBox(nil, f, []float64{0.5, 0.5}, lo, hi, 100, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := NelderMeadMax(nil, f, []float64{0.9, 0.9}, lo, hi, 0.2, 5000, 1e-15)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ca.Value-nm.Value) > 1e-6 {
		t.Errorf("coordinate ascent %v vs Nelder-Mead %v", ca.Value, nm.Value)
	}
	for i := range ca.X {
		if math.Abs(ca.X[i]-nm.X[i]) > 1e-3 {
			t.Errorf("coordinate %d: %v vs %v", i, ca.X[i], nm.X[i])
		}
	}
}

func TestNelderMeadMaxValidation(t *testing.T) {
	f := quadObjective([]float64{0.5})
	ok := []float64{0.5}
	lo := []float64{0}
	hi := []float64{1}
	if _, err := NelderMeadMax(nil, nil, ok, lo, hi, 0.1, 100, 1e-9); err == nil {
		t.Error("nil objective: expected error")
	}
	if _, err := NelderMeadMax(nil, f, nil, lo, hi, 0.1, 100, 1e-9); err == nil {
		t.Error("empty start: expected error")
	}
	if _, err := NelderMeadMax(nil, f, ok, []float64{0, 1}, hi, 0.1, 100, 1e-9); err == nil {
		t.Error("dimension mismatch: expected error")
	}
	if _, err := NelderMeadMax(nil, f, ok, lo, hi, 0, 100, 1e-9); err == nil {
		t.Error("zero step: expected error")
	}
	if _, err := NelderMeadMax(nil, f, ok, lo, hi, 0.1, 0, 1e-9); err == nil {
		t.Error("zero maxIter: expected error")
	}
	if _, err := NelderMeadMax(nil, f, ok, lo, hi, 0.1, 100, 0); err == nil {
		t.Error("zero tolerance: expected error")
	}
}
