package model

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestBinBasics(t *testing.T) {
	if Bin0.String() != "0" || Bin1.String() != "1" {
		t.Error("Bin String wrong")
	}
	if Bin0.Other() != Bin1 || Bin1.Other() != Bin0 {
		t.Error("Bin Other wrong")
	}
}

func TestNewObliviousRuleValidation(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := NewObliviousRule(bad); err == nil {
			t.Errorf("P0=%v: expected error", bad)
		}
	}
	for _, ok := range []float64{0, 0.5, 1} {
		if _, err := NewObliviousRule(ok); err != nil {
			t.Errorf("P0=%v: unexpected error", ok)
		}
	}
}

func TestObliviousRuleDeterministicEndpoints(t *testing.T) {
	always0, err := NewObliviousRule(1)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := always0.Decide(0.9, nil); err != nil || b != Bin0 {
		t.Errorf("P0=1 Decide = %v, %v; want Bin0", b, err)
	}
	always1, err := NewObliviousRule(0)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := always1.Decide(0.1, nil); err != nil || b != Bin1 {
		t.Errorf("P0=0 Decide = %v, %v; want Bin1", b, err)
	}
}

func TestObliviousRuleRandomizedNeedsRNG(t *testing.T) {
	r, err := NewObliviousRule(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Decide(0.5, nil); err == nil {
		t.Error("randomized rule with nil rng: expected error")
	}
}

func TestObliviousRuleFrequency(t *testing.T) {
	r, err := NewObliviousRule(0.3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 100000
	zeros := 0
	for i := 0; i < n; i++ {
		b, err := r.Decide(0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		if b == Bin0 {
			zeros++
		}
	}
	if got := float64(zeros) / n; math.Abs(got-0.3) > 0.01 {
		t.Errorf("empirical P(Bin0) = %v, want ≈ 0.3", got)
	}
}

func TestObliviousRuleIgnoresInputProperty(t *testing.T) {
	// Same RNG state and different inputs must give the same decision.
	f := func(x1, x2 uint16, seed uint64) bool {
		r, err := NewObliviousRule(0.5)
		if err != nil {
			return false
		}
		rngA := rand.New(rand.NewPCG(seed, 1))
		rngB := rand.New(rand.NewPCG(seed, 1))
		a, errA := r.Decide(float64(x1)/65535, rngA)
		b, errB := r.Decide(float64(x2)/65535, rngB)
		return errA == nil && errB == nil && a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewThresholdRuleValidation(t *testing.T) {
	for _, bad := range []float64{-0.01, 1.01, math.NaN()} {
		if _, err := NewThresholdRule(bad); err == nil {
			t.Errorf("threshold %v: expected error", bad)
		}
	}
}

func TestThresholdRuleDecisions(t *testing.T) {
	r, err := NewThresholdRule(0.622)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x    float64
		want Bin
	}{
		{0, Bin0},
		{0.622, Bin0}, // boundary goes to Bin0 (x ≤ a)
		{0.623, Bin1},
		{1, Bin1},
	}
	for _, c := range cases {
		got, err := r.Decide(c.x, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Decide(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestFuncRule(t *testing.T) {
	if _, err := NewFuncRule("nil", nil); err == nil {
		t.Error("nil function: expected error")
	}
	// A deliberately non-threshold rule: middle band to Bin0.
	r, err := NewFuncRule("band", func(x float64) Bin {
		if x > 0.25 && x < 0.75 {
			return Bin0
		}
		return Bin1
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "band" {
		t.Errorf("Name = %q", r.Name())
	}
	if b, _ := r.Decide(0.5, nil); b != Bin0 {
		t.Error("band rule middle should be Bin0")
	}
	if b, _ := r.Decide(0.9, nil); b != Bin1 {
		t.Error("band rule edge should be Bin1")
	}
}

func TestNewSystemValidation(t *testing.T) {
	th, err := NewThresholdRule(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem([]LocalRule{th}, 1); err == nil {
		t.Error("single player: expected error")
	}
	if _, err := NewSystem([]LocalRule{th, nil}, 1); err == nil {
		t.Error("nil rule: expected error")
	}
	if _, err := NewSystem([]LocalRule{th, th}, 0); err == nil {
		t.Error("zero capacity: expected error")
	}
	if _, err := NewSystem([]LocalRule{th, th}, math.Inf(1)); err == nil {
		t.Error("infinite capacity: expected error")
	}
	s, err := NewSystem([]LocalRule{th, th, th}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 3 || s.Capacity() != 1.5 {
		t.Errorf("N=%d capacity=%v", s.N(), s.Capacity())
	}
	got, err := s.Rule(2)
	if err != nil || got == nil {
		t.Errorf("Rule(2) = %v, %v", got, err)
	}
	if _, err := s.Rule(3); err == nil {
		t.Error("out-of-range rule index: expected error")
	}
	if _, err := s.Rule(-1); err == nil {
		t.Error("negative rule index: expected error")
	}
}

func TestUniformSystem(t *testing.T) {
	th, err := NewThresholdRule(0.5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := UniformSystem(5, th, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 5 {
		t.Errorf("N = %d, want 5", s.N())
	}
	if _, err := UniformSystem(1, th, 1); err == nil {
		t.Error("n=1: expected error")
	}
}

func TestSystemPlayThresholds(t *testing.T) {
	// Three players with threshold 0.5, capacity 1.
	th, err := NewThresholdRule(0.5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := UniformSystem(3, th, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Inputs 0.2, 0.3, 0.8: bin0 gets 0.5, bin1 gets 0.8 → win.
	out, err := s.Play([]float64{0.2, 0.3, 0.8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Win {
		t.Error("expected a win")
	}
	if math.Abs(out.Load0-0.5) > 1e-15 || math.Abs(out.Load1-0.8) > 1e-15 {
		t.Errorf("loads = %v, %v", out.Load0, out.Load1)
	}
	wantDec := []Bin{Bin0, Bin0, Bin1}
	for i, d := range out.Decisions {
		if d != wantDec[i] {
			t.Errorf("decision %d = %v, want %v", i, d, wantDec[i])
		}
	}
	// Inputs 0.4, 0.4, 0.45: bin0 gets 1.25 → overflow.
	out, err = s.Play([]float64{0.4, 0.4, 0.45}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Win {
		t.Error("expected an overflow loss")
	}
}

func TestSystemPlayValidation(t *testing.T) {
	th, err := NewThresholdRule(0.5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := UniformSystem(2, th, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Play([]float64{0.1}, nil); err == nil {
		t.Error("wrong input count: expected error")
	}
	if _, err := s.Play([]float64{0.1, 1.5}, nil); err == nil {
		t.Error("out-of-range input: expected error")
	}
	if _, err := s.Play([]float64{0.1, math.NaN()}, nil); err == nil {
		t.Error("NaN input: expected error")
	}
	// Randomized rule with nil rng surfaces the rule error.
	ob, err := NewObliviousRule(0.5)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := UniformSystem(2, ob, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Play([]float64{0.1, 0.2}, nil); err == nil {
		t.Error("randomized system with nil rng: expected error")
	}
}

func TestSystemSampleInputs(t *testing.T) {
	th, err := NewThresholdRule(0.5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := UniformSystem(4, th, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SampleInputs(nil); err == nil {
		t.Error("nil rng: expected error")
	}
	rng := rand.New(rand.NewPCG(5, 6))
	inputs, err := s.SampleInputs(rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) != 4 {
		t.Fatalf("got %d inputs, want 4", len(inputs))
	}
	for i, x := range inputs {
		if x < 0 || x >= 1 {
			t.Errorf("input %d = %v outside [0, 1)", i, x)
		}
	}
}

func TestFeasibleAssignmentExists(t *testing.T) {
	cases := []struct {
		inputs   []float64
		capacity float64
		want     bool
	}{
		{[]float64{0.5, 0.5, 0.5}, 1, true},   // 2-1 split works
		{[]float64{0.9, 0.9, 0.9}, 1, false},  // any 2 together overflow
		{[]float64{0.9, 0.9, 0.9}, 1.8, true}, // larger capacity
		{[]float64{1, 1}, 1, true},            // one per bin
		{[]float64{1, 1, 0.1}, 1, false},      // the 0.1 breaks a bin
		{[]float64{}, 1, true},                // vacuous
		{[]float64{0.4}, 1, true},
	}
	for _, c := range cases {
		got, err := FeasibleAssignmentExists(c.inputs, c.capacity)
		if err != nil {
			t.Fatalf("FeasibleAssignmentExists(%v, %v): %v", c.inputs, c.capacity, err)
		}
		if got != c.want {
			t.Errorf("FeasibleAssignmentExists(%v, %v) = %v, want %v", c.inputs, c.capacity, got, c.want)
		}
	}
}

// feasibleByMasks is the reference oracle: player 0 in bin 0, every mask of
// the other n-1 players enumerated, the bin-0 load summed in index order.
func feasibleByMasks(inputs []float64, capacity float64) bool {
	n := len(inputs)
	if n == 0 {
		return true
	}
	var total float64
	for _, x := range inputs {
		total += x
	}
	if total > 2*capacity {
		return false
	}
	for mask := uint64(0); mask < uint64(1)<<uint(n-1); mask++ {
		load0 := inputs[0]
		for i := 1; i < n; i++ {
			if mask&(1<<uint(i-1)) == 0 {
				load0 += inputs[i]
			}
		}
		if load0 <= capacity && total-load0 <= capacity {
			return true
		}
	}
	return false
}

// TestFeasibleAssignmentMatchesEnumeration checks the pruned walk against
// the full mask enumeration on random inputs for n = 1..14 at four
// capacities (from mostly infeasible to always feasible), and on dyadic
// inputs whose best split fills a bin exactly, so the <= comparisons are
// exercised at equality.
func TestFeasibleAssignmentMatchesEnumeration(t *testing.T) {
	check := func(inputs []float64, capacity float64) {
		t.Helper()
		got, err := FeasibleAssignmentExists(inputs, capacity)
		if err != nil {
			t.Fatalf("FeasibleAssignmentExists(%v, %v): %v", inputs, capacity, err)
		}
		if want := feasibleByMasks(inputs, capacity); got != want {
			t.Errorf("FeasibleAssignmentExists(%v, %v) = %v, enumeration says %v", inputs, capacity, got, want)
		}
	}
	rng := rand.New(rand.NewPCG(26, 1))
	for n := 1; n <= 14; n++ {
		for _, frac := range []float64{0.25, 0.45, 0.5, 0.75} {
			capacity := frac * float64(n)
			for trial := 0; trial < 40; trial++ {
				inputs := make([]float64, n)
				for i := range inputs {
					inputs[i] = rng.Float64()
				}
				check(inputs, capacity)
			}
		}
	}
	// Dyadic cases: each split sums exactly, so only the equality edge of
	// a bin decides; nudging one input by 2^-40 flips the exact ones.
	dyadic := []struct {
		inputs   []float64
		capacity float64
		want     bool
	}{
		{[]float64{0.5, 0.25, 0.25}, 0.5, true},            // {0.5} | {0.25, 0.25}, total 2c
		{[]float64{0.25, 0.5, 0.25}, 0.5, true},            // player 0 shares bin 0
		{[]float64{0.5, 0.25, 0.25 + 0x1p-40}, 0.5, false}, // total just above 2c
		{[]float64{0.375, 0.125, 0.25, 0.25}, 0.5, true},   // {0.375, 0.125} | {0.25, 0.25}
		{[]float64{0.75, 0.75, 0.5}, 1, false},             // total 2c, but no exact split
		{[]float64{0.625, 0.375, 0.5, 0.5}, 1, true},       // {0.625, 0.375} | {0.5, 0.5}
		{[]float64{0.5, 0.5}, 0.5, true},                   // one per bin, both full
		{[]float64{1, 0.5, 0.25, 0.125, 0.125}, 1, true},   // {1} | the rest, sums to 1
		{[]float64{1 + 0x1p-40, 0.25, 0.25}, 1, false},     // player 0 alone overflows
	}
	for _, c := range dyadic {
		got, err := FeasibleAssignmentExists(c.inputs, c.capacity)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("FeasibleAssignmentExists(%v, %v) = %v, want %v", c.inputs, c.capacity, got, c.want)
		}
		check(c.inputs, c.capacity)
	}
}

func TestFeasibleAssignmentValidation(t *testing.T) {
	if _, err := FeasibleAssignmentExists([]float64{0.5}, 0); err == nil {
		t.Error("zero capacity: expected error")
	}
	if _, err := FeasibleAssignmentExists([]float64{-0.5}, 1); err == nil {
		t.Error("negative input: expected error")
	}
	if _, err := FeasibleAssignmentExists(make([]float64, 31), 1); err == nil {
		t.Error("too many players: expected error")
	}
	if _, err := FeasibleAssignmentExists([]float64{0.5, math.NaN()}, 1); err == nil {
		t.Error("NaN input: expected error")
	}
	if _, err := FeasibleAssignmentExists([]float64{0.5}, -1); err == nil {
		t.Error("negative capacity: expected error")
	}
}

func TestFeasibilityDominatesAnySystemProperty(t *testing.T) {
	// Property: whenever a threshold system wins, a feasible assignment
	// exists (the omniscient benchmark dominates every algorithm).
	th, err := NewThresholdRule(0.622)
	if err != nil {
		t.Fatal(err)
	}
	s, err := UniformSystem(3, th, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c uint16) bool {
		inputs := []float64{float64(a) / 65536, float64(b) / 65536, float64(c) / 65536}
		out, err := s.Play(inputs, nil)
		if err != nil {
			return false
		}
		feasible, err := FeasibleAssignmentExists(inputs, 1)
		if err != nil {
			return false
		}
		return !out.Win || feasible
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
