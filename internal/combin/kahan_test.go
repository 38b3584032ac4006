package combin

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.Sum() != 0 {
		t.Fatalf("zero accumulator sum = %g, want 0", a.Sum())
	}
	a.Add(1)
	a.Add(2)
	a.Add(3)
	if a.Sum() != 6 {
		t.Errorf("sum = %g, want 6", a.Sum())
	}
}

func TestAccumulatorCompensation(t *testing.T) {
	// Classic compensation test: 1 + 1e100 + 1 - 1e100 should be 2.
	var a Accumulator
	for _, v := range []float64{1, 1e100, 1, -1e100} {
		a.Add(v)
	}
	if a.Sum() != 2 {
		t.Errorf("compensated sum = %g, want 2", a.Sum())
	}
}

func TestSumCompensatedAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vs := make([]float64, 10000)
	exact := new(big.Float).SetPrec(200)
	for i := range vs {
		vs[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)))
		exact.Add(exact, big.NewFloat(vs[i]))
	}
	want, _ := exact.Float64()
	var a Accumulator
	for _, v := range vs {
		a.Add(v)
	}
	if got := a.Sum(); math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Errorf("compensated sum = %v, want %v", got, want)
	}
}
