package optimize

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGoldenSectionMaxQuadratic(t *testing.T) {
	f := func(x float64) float64 { return -(x - 0.3) * (x - 0.3) }
	res, err := GoldenSectionMax(nil, f, 0, 1, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X-0.3) > 1e-8 {
		t.Errorf("argmax = %v, want 0.3", res.X)
	}
	if math.Abs(res.Value) > 1e-15 {
		t.Errorf("max value = %v, want 0", res.Value)
	}
	if res.Evals <= 0 {
		t.Error("Evals should be positive")
	}
}

func TestGoldenSectionMaxPaperCubic(t *testing.T) {
	// The paper's n=3 upper-piece probability: max at 1 - sqrt(1/7).
	f := func(b float64) float64 {
		return -11.0/6 + 9*b - 10.5*b*b + 3.5*b*b*b
	}
	res, err := GoldenSectionMax(nil, f, 0.5, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Sqrt(1.0/7)
	if math.Abs(res.X-want) > 1e-6 {
		t.Errorf("argmax = %v, want %v", res.X, want)
	}
	if math.Abs(res.Value-0.545) > 1e-3 {
		t.Errorf("max = %v, want ≈ 0.545", res.Value)
	}
}

func TestGoldenSectionMaxMonotone(t *testing.T) {
	res, err := GoldenSectionMax(nil, func(x float64) float64 { return x }, 0, 2, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X-2) > 1e-8 {
		t.Errorf("argmax of increasing function = %v, want 2", res.X)
	}
}

func TestGoldenSectionMaxValidation(t *testing.T) {
	f := func(x float64) float64 { return x }
	if _, err := GoldenSectionMax(nil, nil, 0, 1, 1e-6); err == nil {
		t.Error("nil objective: expected error")
	}
	if _, err := GoldenSectionMax(nil, f, 1, 0, 1e-6); err == nil {
		t.Error("inverted interval: expected error")
	}
	if _, err := GoldenSectionMax(nil, f, 0, 1, 0); err == nil {
		t.Error("zero tolerance: expected error")
	}
	if _, err := GoldenSectionMax(nil, f, math.NaN(), 1, 1e-6); err == nil {
		t.Error("NaN bound: expected error")
	}
}

func TestGridThenGoldenMaxMultimodal(t *testing.T) {
	// Two peaks; the global one at x ≈ 0.8 is narrower but higher.
	f := func(x float64) float64 {
		return math.Exp(-100*(x-0.2)*(x-0.2)) + 1.5*math.Exp(-400*(x-0.8)*(x-0.8))
	}
	res, err := GridThenGoldenMax(nil, f, 0, 1, 101, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X-0.8) > 1e-6 {
		t.Errorf("argmax = %v, want 0.8 (global peak)", res.X)
	}
	if math.Abs(res.Value-1.5) > 1e-9 {
		t.Errorf("max = %v, want 1.5", res.Value)
	}
}

func TestGridThenGoldenMaxValidation(t *testing.T) {
	f := func(x float64) float64 { return x }
	if _, err := GridThenGoldenMax(nil, nil, 0, 1, 10, 1e-6); err == nil {
		t.Error("nil objective: expected error")
	}
	if _, err := GridThenGoldenMax(nil, f, 1, 0, 10, 1e-6); err == nil {
		t.Error("inverted interval: expected error")
	}
	if _, err := GridThenGoldenMax(nil, f, 0, 1, 2, 1e-6); err == nil {
		t.Error("tiny grid: expected error")
	}
	if _, err := GridThenGoldenMax(nil, f, 0, 1, 10, 0); err == nil {
		t.Error("zero tolerance: expected error")
	}
}

func TestGridThenGoldenFindsGlobalOnRandomBimodalProperty(t *testing.T) {
	f := func(p1Raw, p2Raw uint8) bool {
		p1 := 0.1 + 0.3*float64(p1Raw)/255
		p2 := 0.6 + 0.3*float64(p2Raw)/255
		obj := func(x float64) float64 {
			return math.Exp(-200*(x-p1)*(x-p1)) + 2*math.Exp(-200*(x-p2)*(x-p2))
		}
		res, err := GridThenGoldenMax(nil, obj, 0, 1, 201, 1e-9)
		if err != nil {
			return false
		}
		return math.Abs(res.X-p2) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
