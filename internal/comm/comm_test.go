package comm

import (
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/nonoblivious"
	"repro/internal/problem"
	"repro/internal/stats"
)

func TestValidate(t *testing.T) {
	good := OneBitBroadcast{N: 3, Cut: 0.5, SenderTheta: 0.6, BetaLow: 0.5, BetaHigh: 0.7}
	if err := good.Validate(); err != nil {
		t.Errorf("valid protocol rejected: %v", err)
	}
	cases := []OneBitBroadcast{
		{N: 1, Cut: 0.5, SenderTheta: 0.5, BetaLow: 0.5, BetaHigh: 0.5},
		{N: 3, Cut: -0.1, SenderTheta: 0.5, BetaLow: 0.5, BetaHigh: 0.5},
		{N: 3, Cut: 0.5, SenderTheta: 1.5, BetaLow: 0.5, BetaHigh: 0.5},
		{N: 3, Cut: 0.5, SenderTheta: 0.5, BetaLow: math.NaN(), BetaHigh: 0.5},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestValidateNamesFirstBadParameter sets two parameters out of range on
// both protocols: the error must name the first in declaration order,
// every time.
func TestValidateNamesFirstBadParameter(t *testing.T) {
	for _, p := range []interface{ Validate() error }{
		OneBitBroadcast{N: 3, Cut: -1, SenderTheta: 0.5, BetaLow: 0.5, BetaHigh: 2},
		OneBitToOne{N: 3, Cut: 2, SenderTheta: 0.5, BetaLow: 0.5, BetaHigh: 0.5, Beta: math.NaN()},
	} {
		for i := 0; i < 50; i++ {
			err := p.Validate()
			if err == nil || !strings.HasPrefix(err.Error(), "comm: cut = ") {
				t.Fatalf("%T.Validate() = %v, want an error naming cut", p, err)
			}
		}
	}
}

// The 10-player cap belongs to the exact oracle, not to the protocol:
// Validate accepts 11 players and WinProbability refuses them with a
// player-cap error.
func TestWinProbabilityPlayerCap(t *testing.T) {
	p := OneBitBroadcast{N: 11, Cut: 0.5, SenderTheta: 0.5, BetaLow: 0.5, BetaHigh: 0.5}
	if err := p.Validate(); err != nil {
		t.Errorf("11 players rejected by Validate: %v", err)
	}
	if _, err := p.WinProbability(11.0 / 3); !errors.Is(err, problem.ErrPlayerCap) {
		t.Errorf("WinProbability at 11 players: err = %v, want problem.ErrPlayerCap", err)
	}
	q := OneBitToOne{N: 11, Cut: 0.5, SenderTheta: 0.5, BetaLow: 0.5, BetaHigh: 0.5, Beta: 0.5}
	if err := q.Validate(); err != nil {
		t.Errorf("11 players rejected by OneBitToOne.Validate: %v", err)
	}
	if _, err := q.WinProbability(11.0 / 3); !errors.Is(err, problem.ErrPlayerCap) {
		t.Errorf("OneBitToOne.WinProbability at 11 players: err = %v, want problem.ErrPlayerCap", err)
	}
}

func TestDegenerateCutMatchesNoCommunication(t *testing.T) {
	// Cut = 0: the bit is always 1, so the protocol is the symmetric
	// threshold algorithm at BetaHigh (with the sender at SenderTheta).
	beta := 0.622
	p := OneBitBroadcast{N: 3, Cut: 0, SenderTheta: beta, BetaLow: 0.1, BetaHigh: beta}
	got, err := p.WinProbability(1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := nonoblivious.SymmetricWinningProbability(3, 1, beta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-10 {
		t.Errorf("cut=0 protocol %v vs no-communication %v", got, want)
	}
	// Cut = 1 symmetrically uses BetaLow.
	p = OneBitBroadcast{N: 3, Cut: 1, SenderTheta: beta, BetaLow: beta, BetaHigh: 0.9}
	got, err = p.WinProbability(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-10 {
		t.Errorf("cut=1 protocol %v vs no-communication %v", got, want)
	}
}

func TestWinProbabilityMatchesSimulation(t *testing.T) {
	p := OneBitBroadcast{N: 4, Cut: 0.45, SenderTheta: 0.62, BetaLow: 0.5, BetaHigh: 0.75}
	capacity := 4.0 / 3
	analytic, err := p.WinProbability(capacity)
	if err != nil {
		t.Fatal(err)
	}
	// Manual simulation threading the broadcast bit.
	rng := rand.New(rand.NewPCG(77, 88))
	var prop stats.Proportion
	const trials = 400000
	for i := 0; i < trials; i++ {
		var load0, load1 float64
		// Sender.
		x0 := rng.Float64()
		if x0 <= p.SenderTheta {
			load0 += x0
		} else {
			load1 += x0
		}
		beta := p.BetaLow
		if x0 > p.Cut {
			beta = p.BetaHigh
		}
		for j := 1; j < p.N; j++ {
			if x := rng.Float64(); x <= beta {
				load0 += x
			} else {
				load1 += x
			}
		}
		prop.Add(load0 <= capacity && load1 <= capacity)
	}
	if math.Abs(prop.Estimate()-analytic) > 4*prop.StdErr() {
		t.Errorf("analytic %v vs simulated %v ± %v", analytic, prop.Estimate(), prop.StdErr())
	}
}

func TestWinProbabilityValidation(t *testing.T) {
	p := OneBitBroadcast{N: 3, Cut: 0.5, SenderTheta: 0.5, BetaLow: 0.5, BetaHigh: 0.5}
	if _, err := p.WinProbability(0); err == nil {
		t.Error("zero capacity: expected error")
	}
	bad := OneBitBroadcast{N: 1}
	if _, err := bad.WinProbability(1); err == nil {
		t.Error("invalid protocol: expected error")
	}
}

func TestOneBitBeatsNoCommunication(t *testing.T) {
	// The paper's value-of-information thesis at general n, exactly: one
	// broadcast bit strictly improves the optimal winning probability.
	cases := []struct {
		n        int
		capacity float64
		betaStar float64
		noComm   float64
	}{
		{3, 1, 0.622036, 0.544631},
		{4, 4.0 / 3, 0.677998, 0.428539},
	}
	for _, c := range cases {
		res, err := Optimize(c.n, c.capacity, c.betaStar)
		if err != nil {
			t.Fatal(err)
		}
		if res.WinProbability < c.noComm-1e-9 {
			t.Errorf("n=%d: one-bit optimum %v fell below no-communication %v",
				c.n, res.WinProbability, c.noComm)
		}
		if res.WinProbability < c.noComm+0.005 {
			t.Errorf("n=%d: one bit should strictly help (got %v vs %v)",
				c.n, res.WinProbability, c.noComm)
		}
		t.Logf("n=%d δ=%.3f: one-bit broadcast %.6f vs no-comm %.6f (cut %.3f, θ %.3f, β %.3f/%.3f)",
			c.n, c.capacity, res.WinProbability, c.noComm,
			res.Protocol.Cut, res.Protocol.SenderTheta, res.Protocol.BetaLow, res.Protocol.BetaHigh)
	}
}

func TestOptimizeValidation(t *testing.T) {
	if _, err := Optimize(1, 1, 0.5); err == nil {
		t.Error("n=1: expected error")
	}
	if _, err := Optimize(3, 0, 0.5); err == nil {
		t.Error("zero capacity: expected error")
	}
	if _, err := Optimize(3, 1, 1.5); err == nil {
		t.Error("betaStar > 1: expected error")
	}
}
