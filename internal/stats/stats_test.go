package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.Variance() != 0 || r.StdErr() != 0 {
		t.Error("zero-value accumulator invariants violated")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d, want 8", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", r.Mean())
	}
	// Population variance of this classic dataset is 4; sample variance
	// is 32/7.
	if math.Abs(r.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", r.Variance(), 32.0/7)
	}
	if math.Abs(r.StdDev()-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("stddev = %v", r.StdDev())
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", r.Min(), r.Max())
	}
	if math.Abs(r.StdErr()-r.StdDev()/math.Sqrt(8)) > 1e-15 {
		t.Errorf("stderr = %v", r.StdErr())
	}
}

func TestRunningSingleObservation(t *testing.T) {
	var r Running
	r.Add(3.5)
	if r.Variance() != 0 || r.Min() != 3.5 || r.Max() != 3.5 || r.Mean() != 3.5 {
		t.Error("single observation invariants violated")
	}
}

func TestRunningMergeMatchesSequentialProperty(t *testing.T) {
	f := func(seedA, seedB uint64, nA, nB uint8) bool {
		rngA := rand.New(rand.NewPCG(seedA, 1))
		rngB := rand.New(rand.NewPCG(seedB, 2))
		var a, b, all Running
		for i := 0; i < int(nA); i++ {
			x := rngA.NormFloat64()
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < int(nB); i++ {
			x := rngB.NormFloat64()
			b.Add(x)
			all.Add(x)
		}
		a.Merge(b)
		if a.N() != all.N() {
			return false
		}
		if a.N() == 0 {
			return true
		}
		tol := 1e-9 * (1 + math.Abs(all.Mean()))
		if math.Abs(a.Mean()-all.Mean()) > tol {
			return false
		}
		return math.Abs(a.Variance()-all.Variance()) <= 1e-9*(1+all.Variance())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunningMergeEmptyCases(t *testing.T) {
	var a, b Running
	a.Merge(b) // both empty
	if a.N() != 0 {
		t.Error("merging empties should stay empty")
	}
	b.Add(2)
	a.Merge(b) // empty receiver
	if a.N() != 1 || a.Mean() != 2 {
		t.Error("merge into empty should copy")
	}
	var c Running
	a.Merge(c) // empty argument
	if a.N() != 1 || a.Mean() != 2 {
		t.Error("merging an empty argument should be a no-op")
	}
}

func TestProportionBasics(t *testing.T) {
	var p Proportion
	if p.Estimate() != 0 || p.StdErr() != 0 {
		t.Error("empty proportion invariants violated")
	}
	for i := 0; i < 10; i++ {
		p.Add(i < 3)
	}
	if p.Trials() != 10 || p.Successes() != 3 {
		t.Errorf("trials/successes = %d/%d", p.Trials(), p.Successes())
	}
	if math.Abs(p.Estimate()-0.3) > 1e-15 {
		t.Errorf("estimate = %v", p.Estimate())
	}
	want := math.Sqrt(0.3 * 0.7 / 10)
	if math.Abs(p.StdErr()-want) > 1e-15 {
		t.Errorf("stderr = %v, want %v", p.StdErr(), want)
	}
}

func TestProportionAddNAndMerge(t *testing.T) {
	var p Proportion
	if err := p.AddN(5, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.AddN(11, 10); err == nil {
		t.Error("successes > trials: expected error")
	}
	if err := p.AddN(-1, 10); err == nil {
		t.Error("negative successes: expected error")
	}
	if err := p.AddN(0, -1); err == nil {
		t.Error("negative trials: expected error")
	}
	var q Proportion
	if err := q.AddN(3, 10); err != nil {
		t.Fatal(err)
	}
	p.Merge(q)
	if p.Trials() != 20 || p.Successes() != 8 {
		t.Errorf("after merge: %d/%d", p.Successes(), p.Trials())
	}
}

func TestWilsonCI(t *testing.T) {
	var p Proportion
	if _, _, err := p.WilsonCI(1.96); err == nil {
		t.Error("empty counter: expected error")
	}
	if err := p.AddN(50, 100); err != nil {
		t.Fatal(err)
	}
	lo, hi, err := p.WilsonCI(1.96)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < 0.5 && 0.5 < hi) {
		t.Errorf("CI [%v, %v] should contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("CI [%v, %v] too wide for n=100", lo, hi)
	}
	if _, _, err := p.WilsonCI(0); err == nil {
		t.Error("z=0: expected error")
	}
	if _, _, err := p.WilsonCI(math.NaN()); err == nil {
		t.Error("z=NaN: expected error")
	}
	// Extreme proportions stay clamped in [0, 1].
	var ones Proportion
	if err := ones.AddN(10, 10); err != nil {
		t.Fatal(err)
	}
	lo, hi, err = ones.WilsonCI(1.96)
	if err != nil {
		t.Fatal(err)
	}
	if lo < 0 || hi > 1 {
		t.Errorf("CI [%v, %v] escaped [0, 1]", lo, hi)
	}
}

func TestWilsonCICoverageProperty(t *testing.T) {
	// With the true p = 0.545 (the paper's optimal winning probability for
	// n=3), the 95% Wilson interval should cover p in the vast majority of
	// simulated experiments.
	const trueP = 0.545
	rng := rand.New(rand.NewPCG(7, 9))
	covered := 0
	const experiments = 300
	for e := 0; e < experiments; e++ {
		var p Proportion
		for i := 0; i < 400; i++ {
			p.Add(rng.Float64() < trueP)
		}
		lo, hi, err := p.WilsonCI(1.96)
		if err != nil {
			t.Fatal(err)
		}
		if lo <= trueP && trueP <= hi {
			covered++
		}
	}
	if covered < 270 { // 90% of experiments; nominal is 95%
		t.Errorf("Wilson CI covered true p in only %d/%d experiments", covered, experiments)
	}
}
