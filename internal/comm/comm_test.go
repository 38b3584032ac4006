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
	if _, err := Optimize(3, math.Inf(1), 0.5); err == nil {
		t.Error("infinite capacity: expected error")
	}
	if _, err := Optimize(3, 1, 1.5); err == nil {
		t.Error("betaStar > 1: expected error")
	}
}

// TestWinProbabilityBits pins the float64 bits of both protocols' exact
// evaluation on a grid of player counts and cut points at δ = n/3, cut
// points 0 and 1 included (one conditional world empty).
func TestWinProbabilityBits(t *testing.T) {
	cases := []struct {
		n                   int
		cut                 float64
		broadcast, oneToOne uint64
	}{
		{3, 0, 0x3fe089efd86a8fc1, 0x3fe133929ed3953c},
		{3, 0.3, 0x3fe0ad6f8108f0b0, 0x3fe128235883073e},
		{3, 0.553, 0x3fe2460fb7bc52bb, 0x3fe1fa98510bd2e4},
		{3, 1, 0x3fe06fdbe958acf8, 0x3fe10f7e69da0002},
		{4, 0, 0x3fdae37dee3f39e6, 0x3fdb7c1cd775439b},
		{4, 0.3, 0x3fda209d03c61359, 0x3fdafc8e8b95261c},
		{4, 0.553, 0x3fdc2bae9f988966, 0x3fdba840f0f16526},
		{4, 1, 0x3fd9eb0746392c9c, 0x3fdae93320ba7e77},
		{6, 0, 0x3fe181a6308c81ba, 0x3fe14fdf6fbe21e3},
		{6, 0.3, 0x3fe0487ef7629480, 0x3fe0d80b31ae1bdd},
		{6, 0.553, 0x3fe07aaebb4bf7c6, 0x3fe0befa877c53dd},
		{6, 1, 0x3fdaeb74064af6b8, 0x3fdffef406ff39f4},
		{9, 0, 0x3fe2b2b572e6467f, 0x3fe177ca3f7a2f9c},
		{9, 0.3, 0x3fe0ee10a112289c, 0x3fe117cce6977aba},
		{9, 0.553, 0x3fe0686961683e8e, 0x3fe0e3d5e097c41c},
		{9, 1, 0x3fd9a1f7d2df3511, 0x3fe0516a9aeca679},
	}
	for _, c := range cases {
		capacity := float64(c.n) / 3
		b := OneBitBroadcast{N: c.n, Cut: c.cut, SenderTheta: 0.62, BetaLow: 0.5, BetaHigh: 0.75}
		got, err := b.WinProbability(capacity)
		if err != nil {
			t.Fatal(err)
		}
		if bits := math.Float64bits(got); bits != c.broadcast {
			t.Errorf("broadcast n=%d cut=%v: bits %#016x (%v), want %#016x", c.n, c.cut, bits, got, c.broadcast)
		}
		o := OneBitToOne{N: c.n, Cut: c.cut, SenderTheta: 0.62, BetaLow: 0.5, BetaHigh: 0.75, Beta: 0.6}
		got, err = o.WinProbability(capacity)
		if err != nil {
			t.Fatal(err)
		}
		if bits := math.Float64bits(got); bits != c.oneToOne {
			t.Errorf("one-to-one n=%d cut=%v: bits %#016x (%v), want %#016x", c.n, c.cut, bits, got, c.oneToOne)
		}
	}
}

// TestOptimizeBits pins every field of both tuners' results, so the
// searches keep their starts, step, budget and tie-breaking.
func TestOptimizeBits(t *testing.T) {
	res, err := Optimize(4, 4.0/3, 0.677998)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Protocol
	if p.N != 4 {
		t.Errorf("Optimize: N = %d, want 4", p.N)
	}
	for _, f := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"cut", p.Cut, 0x3fe1c231c9ed0b6b},
		{"senderTheta", p.SenderTheta, 0x3ef78672408e0095},
		{"betaLow", p.BetaLow, 0x3fe6b8fee9713990},
		{"betaHigh", p.BetaHigh, 0x3feffffffff5cce6},
		{"winProbability", res.WinProbability, 0x3fe0c7481b7169b0},
	} {
		if bits := math.Float64bits(f.got); bits != f.want {
			t.Errorf("Optimize %s: bits %#016x (%v), want %#016x", f.name, bits, f.got, f.want)
		}
	}
	q, v, err := OptimizeOneWay(3, 1, 0.622036)
	if err != nil {
		t.Fatal(err)
	}
	if q.N != 3 {
		t.Errorf("OptimizeOneWay: N = %d, want 3", q.N)
	}
	for _, f := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"cut", q.Cut, 0x3fe0000000000000},
		{"senderTheta", q.SenderTheta, 0x3fe0000000000000},
		{"betaLow", q.BetaLow, 0},
		{"betaHigh", q.BetaHigh, 0x3ff0000000000000},
		{"beta", q.Beta, 0x3ff0000000000000},
		{"winProbability", v, 0x3fe4000000000000},
	} {
		if bits := math.Float64bits(f.got); bits != f.want {
			t.Errorf("OptimizeOneWay %s: bits %#016x (%v), want %#016x", f.name, bits, f.got, f.want)
		}
	}
}
