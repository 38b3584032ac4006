package py91

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/model"
	"repro/internal/nonoblivious"
)

func TestPatternString(t *testing.T) {
	cases := map[Pattern]string{
		NoCommunication: "none",
		OneWay:          "one-way",
		Broadcast:       "broadcast",
		Full:            "full",
		Pattern(42):     "pattern(42)",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestNewThresholdProtocolValidation(t *testing.T) {
	if _, err := NewThresholdProtocol([Players]float64{0.5, 1.5, 0.5}); err == nil {
		t.Error("threshold > 1: expected error")
	}
	if _, err := NewThresholdProtocol([Players]float64{math.NaN(), 0.5, 0.5}); err == nil {
		t.Error("NaN threshold: expected error")
	}
	p, err := NewThresholdProtocol([Players]float64{0.3, 0.5, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
}

func TestThresholdProtocolDecide(t *testing.T) {
	p, err := NewThresholdProtocol([Players]float64{0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	bins, err := p.Decide([Players]float64{0.2, 0.5, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	want := [Players]model.Bin{model.Bin0, model.Bin0, model.Bin1}
	if bins != want {
		t.Errorf("Decide = %v, want %v", bins, want)
	}
}

func TestConjecturedOptimalMatchesPaperProof(t *testing.T) {
	// The reproduced paper proves the PY91 conjecture: the protocol at
	// threshold 1 - sqrt(1/7) is exactly the paper's optimal symmetric
	// single-threshold algorithm for n=3, δ=1.
	proto := ConjecturedOptimal()
	exact, err := proto.ExactWinProbability()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := nonoblivious.OptimalSymmetric(3, big.NewRat(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(proto.Theta[0]-opt.BetaFloat) > 1e-14 {
		t.Errorf("conjectured threshold %v vs proven optimum %v", proto.Theta[0], opt.BetaFloat)
	}
	if math.Abs(exact-opt.WinProbabilityFloat) > 1e-10 {
		t.Errorf("conjectured protocol P = %v vs proven optimum %v", exact, opt.WinProbabilityFloat)
	}
	if math.Abs(exact-0.545) > 1e-3 {
		t.Errorf("P = %v, want ≈ 0.545", exact)
	}
}

func TestNewWeightedAverageProtocolValidation(t *testing.T) {
	if _, err := NewWeightedAverageProtocol(NoCommunication, 0.5, 0.5, 0.5, 0.5); err == nil {
		t.Error("wrong pattern: expected error")
	}
	if _, err := NewWeightedAverageProtocol(Full, 0.5, 0.5, 0.5, 0.5); err == nil {
		t.Error("Full pattern: expected error")
	}
	if _, err := NewWeightedAverageProtocol(OneWay, 5, 0.5, 0.5, 0.5); err == nil {
		t.Error("theta out of range: expected error")
	}
	if _, err := NewWeightedAverageProtocol(OneWay, 0.5, 0.5, 0.5, 2); err == nil {
		t.Error("weight out of range: expected error")
	}
	p, err := NewWeightedAverageProtocol(Broadcast, 0.5, 0.6, 0.6, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if p.CommPattern != Broadcast || p.Name() == "" {
		t.Error("metadata wrong")
	}
}

func TestWeightedAverageDecideRespectsPattern(t *testing.T) {
	// Under OneWay, player 2 must not react to x_0.
	p, err := NewWeightedAverageProtocol(OneWay, 0.5, 0.5, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Decide([Players]float64{0.1, 0.4, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Decide([Players]float64{0.9, 0.4, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if a[2] != b[2] {
		t.Error("one-way protocol: player 2 reacted to x_0")
	}
	// Player 1 does react.
	if a[1] == b[1] {
		t.Error("one-way protocol: player 1 ignored x_0 despite weight 0.5")
	}
	// Under Broadcast, player 2 reacts too.
	pb, err := NewWeightedAverageProtocol(Broadcast, 0.5, 0.5, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	a, err = pb.Decide([Players]float64{0.1, 0.4, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	b, err = pb.Decide([Players]float64{0.9, 0.4, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if a[2] == b[2] {
		t.Error("broadcast protocol: player 2 ignored x_0")
	}
}

func TestFullInformationProtocol(t *testing.T) {
	p := FullInformationProtocol{}
	if p.Name() == "" {
		t.Error("empty name")
	}
	// Feasible instance: must return a feasible assignment.
	x := [Players]float64{0.9, 0.8, 0.1}
	bins, err := p.Decide(x)
	if err != nil {
		t.Fatal(err)
	}
	var load0, load1 float64
	for i := range x {
		if bins[i] == model.Bin0 {
			load0 += x[i]
		} else {
			load1 += x[i]
		}
	}
	if load0 > Capacity || load1 > Capacity {
		t.Errorf("full-information protocol overflowed on feasible instance: %v / %v", load0, load1)
	}
	// Infeasible instance: any output is allowed, but no error.
	if _, err := p.Decide([Players]float64{0.9, 0.9, 0.9}); err != nil {
		t.Fatal(err)
	}
}

func TestInformationLadder(t *testing.T) {
	// More information should not hurt: each tuned rung is at least the
	// no-communication optimum, which the broadcast family contains, and
	// none beats full information.
	none, err := ConjecturedOptimal().ExactWinProbability()
	if err != nil {
		t.Fatal(err)
	}
	full, err := FullInformationProtocol{}.ExactWinProbability()
	if err != nil {
		t.Fatal(err)
	}
	if full <= none {
		t.Errorf("full information %v should dominate no-communication %v", full, none)
	}
	prev := none
	for _, pattern := range []Pattern{OneWay, Broadcast} {
		p, v, err := OptimizeWeighted(pattern)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev || v > full {
			t.Errorf("tuned %v %v outside [%v, %v]", pattern, v, prev, full)
		}
		if again, err := p.ExactWinProbability(); err != nil || again != v {
			t.Errorf("%v: returned value %v, protocol evaluates to %v (%v)", pattern, v, again, err)
		}
		prev = v
	}
}

func TestOptimizeWeightedValidation(t *testing.T) {
	for _, pattern := range []Pattern{NoCommunication, Full} {
		if _, _, err := OptimizeWeighted(pattern); err == nil {
			t.Errorf("%v pattern: expected error", pattern)
		}
	}
}
