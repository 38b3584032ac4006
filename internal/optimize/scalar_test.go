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

func TestBisect(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Errorf("root = %v, want sqrt(2)", root)
	}
	// Exact hits at endpoints.
	r, err := Bisect(func(x float64) float64 { return x }, 0, 1, 1e-12)
	if err != nil || r != 0 {
		t.Errorf("root at lo: %v, %v", r, err)
	}
	r, err = Bisect(func(x float64) float64 { return x - 1 }, 0, 1, 1e-12)
	if err != nil || r != 1 {
		t.Errorf("root at hi: %v, %v", r, err)
	}
}

func TestBisectValidation(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, 0, 1, 1e-6); err == nil {
		t.Error("same-sign endpoints: expected error")
	}
	if _, err := Bisect(nil, 0, 1, 1e-6); err == nil {
		t.Error("nil function: expected error")
	}
	if _, err := Bisect(f, 1, 0, 1e-6); err == nil {
		t.Error("inverted interval: expected error")
	}
	if _, err := Bisect(f, 0, 1, -1); err == nil {
		t.Error("negative tolerance: expected error")
	}
}

func TestBrentRoot(t *testing.T) {
	// Paper's n=3 optimality condition: β² - 2β + 6/7 = 0 on (0, 1).
	f := func(b float64) float64 { return b*b - 2*b + 6.0/7 }
	root, err := BrentRoot(nil, f, 0, 1, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Sqrt(1.0/7)
	if math.Abs(root-want) > 1e-10 {
		t.Errorf("root = %.15g, want %.15g", root, want)
	}
	// A hard case for secant-only methods.
	g := func(x float64) float64 { return math.Pow(x, 9) - 0.5 }
	root, err = BrentRoot(nil, g, 0, 1, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Pow(0.5, 1.0/9)) > 1e-9 {
		t.Errorf("x^9=0.5 root = %v", root)
	}
}

func TestBrentRootEndpointsAndValidation(t *testing.T) {
	f := func(x float64) float64 { return x - 0.25 }
	r, err := BrentRoot(nil, func(x float64) float64 { return x }, 0, 1, 1e-12)
	if err != nil || r != 0 {
		t.Errorf("root at lo: %v, %v", r, err)
	}
	r, err = BrentRoot(nil, func(x float64) float64 { return x - 1 }, 0, 1, 1e-12)
	if err != nil || r != 1 {
		t.Errorf("root at hi: %v, %v", r, err)
	}
	if _, err := BrentRoot(nil, nil, 0, 1, 1e-6); err == nil {
		t.Error("nil function: expected error")
	}
	if _, err := BrentRoot(nil, f, 1, 0, 1e-6); err == nil {
		t.Error("inverted interval: expected error")
	}
	if _, err := BrentRoot(nil, f, 0.5, 1, 1e-6); err == nil {
		t.Error("same-sign endpoints: expected error")
	}
	if _, err := BrentRoot(nil, f, 0, 1, 0); err == nil {
		t.Error("zero tolerance: expected error")
	}
}

func TestBrentMatchesBisectProperty(t *testing.T) {
	f := func(cRaw uint8) bool {
		c := 0.05 + 0.9*float64(cRaw)/255
		obj := func(x float64) float64 { return x*x*x - c }
		b1, err1 := Bisect(obj, 0, 1, 1e-12)
		b2, err2 := BrentRoot(nil, obj, 0, 1, 1e-12)
		return err1 == nil && err2 == nil && math.Abs(b1-b2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
