package py91

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/nonoblivious"
)

func mustWeighted(t *testing.T, pattern Pattern, theta0, theta1, theta2, w float64) *WeightedAverageProtocol {
	t.Helper()
	p, err := NewWeightedAverageProtocol(pattern, theta0, theta1, theta2, w)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustExact(t *testing.T, p interface{ ExactWinProbability() (float64, error) }) float64 {
	t.Helper()
	v, err := p.ExactWinProbability()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// At W = 0 nobody listens, so both patterns are the threshold protocol
// that Theorem 5.1 evaluates.
func TestExactZeroWeightMatchesTheorem51(t *testing.T) {
	b := ConjecturedOptimalThreshold
	for _, th := range [][Players]float64{
		{b, b, b}, {0.3, 0.5, 0.7}, {0.9, 0.1, 0.45}, {0, 1, 0.5}, {1, 1, 1}, {0.25, 0.75, 0.6},
	} {
		want, err := nonoblivious.WinningProbability(th[:], Capacity, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, pattern := range []Pattern{OneWay, Broadcast} {
			got := mustExact(t, mustWeighted(t, pattern, th[0], th[1], th[2], 0))
			if math.Abs(got-want) > 1e-15 {
				t.Errorf("%v θ=%v: oracle %v, Theorem 5.1 %v (diff %.3g)", pattern, th, got, want, got-want)
			}
		}
	}
}

// At W = 1 player 1 ignores its own input and goes to bin 0 exactly when
// x₀ ≤ θ₁: the one-bit protocols of package comm with listener
// thresholds 1 (bit 0) and 0 (bit 1).
func TestExactUnitWeightMatchesOneBit(t *testing.T) {
	for _, th := range [][Players]float64{
		{0.5, 0.5, 1}, {0.62, 0.4, 0.7}, {0.3, 0.8, 0.2}, {1, 0.5, 0}, {0, 0.35, 0.9},
	} {
		oneWay, err := comm.OneBitToOne{N: Players, Cut: th[1], SenderTheta: th[0], BetaLow: 1, BetaHigh: 0, Beta: th[2]}.WinProbability(Capacity)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustExact(t, mustWeighted(t, OneWay, th[0], th[1], th[2], 1)); math.Abs(got-oneWay) > 1e-12 {
			t.Errorf("one-way θ=%v: oracle %v, comm.OneBitToOne %v", th, got, oneWay)
		}
		broadcast, err := comm.OneBitBroadcast{N: Players, Cut: th[1], SenderTheta: th[0], BetaLow: 1, BetaHigh: 0}.WinProbability(Capacity)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustExact(t, mustWeighted(t, Broadcast, th[0], th[1], th[1], 1)); math.Abs(got-broadcast) > 1e-12 {
			t.Errorf("broadcast θ=%v: oracle %v, comm.OneBitBroadcast %v", th, got, broadcast)
		}
	}
}

// Broadcast(θ = 1, 0, ½; W = ½): player 0 always takes bin 0, player 1
// always bin 1, and player 2 joins bin 0 exactly when x₂ ≤ 1 − x₀. The
// players win unless x₂ > 1 − x₀ and x₁ + x₂ > 1, so
// P = 1/2 + ∫ x₂(1 − x₂) dx₂ = 2/3.
func TestExactClosedFormPoint(t *testing.T) {
	got := mustExact(t, mustWeighted(t, Broadcast, 1, 0, 0.5, 0.5))
	if got != 2.0/3 {
		t.Errorf("oracle %v, want 2/3", got)
	}
}

func TestExactValidation(t *testing.T) {
	for _, p := range []*WeightedAverageProtocol{
		{CommPattern: Full, Theta0: 0.5, Theta1: 0.5, Theta2: 0.5},
		{CommPattern: OneWay, Theta0: math.NaN(), Theta1: 0.5, Theta2: 0.5},
		{CommPattern: Broadcast, Theta0: 0.5, Theta1: 3, Theta2: 0.5},
		{CommPattern: Broadcast, Theta0: 0.5, Theta1: 0.5, Theta2: 0.5, W: 1.5},
	} {
		if _, err := p.ExactWinProbability(); err == nil {
			t.Errorf("%+v: expected error", *p)
		}
	}
}

func BenchmarkExactWinProbability(b *testing.B) {
	p, err := NewWeightedAverageProtocol(Broadcast, 0.62, 0.9, 0.9, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.ExactWinProbability(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExactWinProbabilityAllocs pins the weighted-average objective at
// zero heap allocations per probe: its break lists live in fixed-size
// arrays, so T5's tuner allocates nothing per evaluation.
func TestExactWinProbabilityAllocs(t *testing.T) {
	for _, pattern := range []Pattern{OneWay, Broadcast} {
		p, err := NewWeightedAverageProtocol(pattern, 0.6, 0.7, 0.65, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(20, func() { _, _ = p.ExactWinProbability() }); got != 0 {
			t.Errorf("%v: %v allocations per probe, want 0", pattern, got)
		}
	}
}
