package comm

import (
	"math"
	"testing"
)

func TestOneBitToOneValidate(t *testing.T) {
	good := OneBitToOne{N: 3, Cut: 0.5, SenderTheta: 0.6, BetaLow: 0.5, BetaHigh: 0.7, Beta: 0.62}
	if err := good.Validate(); err != nil {
		t.Errorf("valid protocol rejected: %v", err)
	}
	bad := []OneBitToOne{
		{N: 2, Cut: 0.5, SenderTheta: 0.5, BetaLow: 0.5, BetaHigh: 0.5, Beta: 0.5},
		{N: 3, Cut: 0.5, SenderTheta: 0.5, BetaLow: 0.5, BetaHigh: 0.5, Beta: -0.1},
		{N: 3, Cut: math.NaN(), SenderTheta: 0.5, BetaLow: 0.5, BetaHigh: 0.5, Beta: 0.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestOneBitToOneDegenerateMatchesNoCommunication(t *testing.T) {
	// Equal conditional thresholds erase the communication.
	beta := 0.622
	p := OneBitToOne{N: 3, Cut: 0.5, SenderTheta: beta, BetaLow: beta, BetaHigh: beta, Beta: beta}
	got, err := p.WinProbability(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.544631) > 1e-5 {
		t.Errorf("degenerate one-way %v, want ≈ 0.544631", got)
	}
}

func TestOneBitToOneBetweenNoneAndBroadcast(t *testing.T) {
	// The information ladder within the one-bit world: telling one
	// listener is worth less than telling all of them, but more than
	// telling nobody.
	noComm := 0.544631
	oneWayProto, oneWay, err := OptimizeOneWay(3, 1, 0.622036)
	if err != nil {
		t.Fatal(err)
	}
	broadcast, err := Optimize(3, 1, 0.622036)
	if err != nil {
		t.Fatal(err)
	}
	if oneWay < noComm-1e-9 {
		t.Errorf("one-way optimum %v below no-communication %v", oneWay, noComm)
	}
	if oneWay < noComm+0.005 {
		t.Errorf("one bit to one listener should strictly help: %v vs %v", oneWay, noComm)
	}
	// Both one-bit families are bounded by full information (3/4). Note
	// the tuned ONE-WAY family can exceed the tuned broadcast family:
	// the broadcast parameterization forces symmetric listeners while the
	// one-way one frees the third player, so neither family contains the
	// other — each value is a lower bound for its pattern's optimum.
	if oneWay > 0.75+1e-6 {
		t.Errorf("one-way %v cannot beat full information 3/4", oneWay)
	}
	if broadcast.WinProbability > 0.75+1e-6 {
		t.Errorf("broadcast %v cannot beat full information 3/4", broadcast.WinProbability)
	}
	t.Logf("n=3 δ=1: none %.6f, one-way bit %.6f, sym-broadcast bit %.6f (one-way protocol %+v)",
		noComm, oneWay, broadcast.WinProbability, oneWayProto)
}

func TestOneWayMirrorProtocolIsExactlyFiveEighths(t *testing.T) {
	// The tuned optimum has a closed form: the sender thresholds at 1/2
	// and announces its side; player 1 MIRRORS the bit (joins bin 0
	// exactly when the sender went to bin 1); player 2 always joins
	// bin 0. By direct integration P = 3/8 + 1/4 = 5/8:
	//   bit=0: win ⇔ x₀ + x₂ ≤ 1 with x₀ ≤ 1/2 → ∫₀^½ (1-x) dx = 3/8,
	//   bit=1: win ⇔ x₁ + x₂ ≤ 1, freely      → 1/2 · 1/2     = 1/4.
	p := OneBitToOne{N: 3, Cut: 0.5, SenderTheta: 0.5, BetaLow: 0, BetaHigh: 1, Beta: 1}
	got, err := p.WinProbability(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.625) > 1e-12 {
		t.Errorf("mirror protocol P = %.15f, want exactly 5/8", got)
	}
}

// TestOptimizeOneWayReachesMirror requires the tuned one-way bit to be
// worth at least the mirror protocol's closed-form 5/8 at n = 3, δ = 1.
func TestOptimizeOneWayReachesMirror(t *testing.T) {
	_, v, err := OptimizeOneWay(3, 1, 0.622036)
	if err != nil {
		t.Fatal(err)
	}
	if v < 0.625 {
		t.Errorf("tuned one-way bit P = %.9f, below the mirror protocol's 5/8", v)
	}
}

func TestOneBitToOneValidation(t *testing.T) {
	p := OneBitToOne{N: 3, Cut: 0.5, SenderTheta: 0.5, BetaLow: 0.5, BetaHigh: 0.5, Beta: 0.5}
	if _, err := p.WinProbability(0); err == nil {
		t.Error("zero capacity: expected error")
	}
	if _, err := (OneBitToOne{N: 2}).WinProbability(1); err == nil {
		t.Error("invalid protocol: expected error")
	}
	if _, _, err := OptimizeOneWay(2, 1, 0.5); err == nil {
		t.Error("n=2: expected error")
	}
	if _, _, err := OptimizeOneWay(3, 0, 0.5); err == nil {
		t.Error("zero capacity: expected error")
	}
	if _, _, err := OptimizeOneWay(3, math.Inf(1), 0.5); err == nil {
		t.Error("infinite capacity: expected error")
	}
	if _, _, err := OptimizeOneWay(3, 1, 2); err == nil {
		t.Error("betaStar > 1: expected error")
	}
}
