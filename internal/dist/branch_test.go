package dist_test

import (
	"errors"
	"math/big"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/problem"
	"repro/internal/response"
)

// TestWinProbabilityRatMatchesIntervalRules checks the branch oracle
// against the independent interval-rule evaluator response.ExactWinProbability
// (pattern masses with multinomial shifts) on seeded symmetric two-interval
// rules, as exact rational equality. Every player enters bin 0 on
// [a, b] ∪ [c, d] and bin 1 on the gaps [0, a], [b, c] and [d, 1], so each
// player has five branches, zero-width ones included.
func TestWinProbabilityRatMatchesIntervalRules(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 1))
	r16 := func(k int64) *big.Rat { return big.NewRat(k, 16) }
	for n := 2; n <= 5; n++ {
		for trial := 0; trial < 10; trial++ {
			ends := make([]int64, 4)
			for i := range ends {
				ends[i] = rng.Int64N(17)
			}
			slices.Sort(ends)
			a, b, c, d := r16(ends[0]), r16(ends[1]), r16(ends[2]), r16(ends[3])
			delta := big.NewRat(4+rng.Int64N(int64(n)*16-3), 16)
			set, err := response.NewRatIntervalSet([]response.RatInterval{{Lo: a, Hi: b}, {Lo: c, Hi: d}})
			if err != nil {
				t.Fatal(err)
			}
			want, err := response.ExactWinProbability(n, delta, set)
			if err != nil {
				t.Fatal(err)
			}
			branch := func(bin int, lo, hi *big.Rat) dist.Branch {
				return dist.Branch{Bin: bin, Mass: new(big.Rat).Sub(hi, lo), Lo: lo, Hi: hi}
			}
			rule := []dist.Branch{
				branch(0, a, b), branch(0, c, d),
				branch(1, new(big.Rat), a), branch(1, b, c), branch(1, d, big.NewRat(1, 1)),
			}
			players := make([][]dist.Branch, n)
			for i := range players {
				players[i] = rule
			}
			got, err := dist.WinProbabilityRat(players, delta)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Errorf("n=%d δ=%s region [%s,%s]∪[%s,%s]: oracle %s, interval rule %s", n, delta.RatString(),
					a.RatString(), b.RatString(), c.RatString(), d.RatString(), got.RatString(), want.RatString())
			}
		}
	}
}

// TestWinProbabilityRatKnownValues pins closed forms: Theorem 4.1 at
// α = 1/2, n = 3, δ = 1 is 5/12; point loads only shift the threshold.
func TestWinProbabilityRatKnownValues(t *testing.T) {
	half, one, zero := big.NewRat(1, 2), big.NewRat(1, 1), new(big.Rat)
	coin := []dist.Branch{{Bin: 0, Mass: half, Lo: zero, Hi: one}, {Bin: 1, Mass: half, Lo: zero, Hi: one}}
	got, err := dist.WinProbabilityRat([][]dist.Branch{coin, coin, coin}, one)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewRat(5, 12)) != 0 {
		t.Errorf("three fair coins, δ = 1: %s, want 5/12", got.RatString())
	}
	// Two point loads of 1/2 in bin 0 and one unit uniform in bin 1:
	// bin 0 holds exactly 1 ≤ δ, so P = F_1(1) = 1.
	point := []dist.Branch{{Bin: 0, Mass: one, Lo: half, Hi: half}}
	unit := []dist.Branch{{Bin: 1, Mass: one, Lo: zero, Hi: one}}
	if got, err := dist.WinProbabilityRat([][]dist.Branch{point, point, unit}, one); err != nil || got.Cmp(one) != 0 {
		t.Errorf("point loads filling bin 0: %v, %v; want 1", got, err)
	}
	// A third point load overflows bin 0.
	if got, err := dist.WinProbabilityRat([][]dist.Branch{point, point, point}, one); err != nil || got.Sign() != 0 {
		t.Errorf("point loads overflowing bin 0: %v, %v; want 0", got, err)
	}
}

// TestWinProbabilityRatRefusals lists every input the oracle refuses. Its
// input reaches it from the command line through CertifyThresholds.
func TestWinProbabilityRatRefusals(t *testing.T) {
	half, one, zero := big.NewRat(1, 2), big.NewRat(1, 1), new(big.Rat)
	good := dist.Branch{Bin: 0, Mass: one, Lo: zero, Hi: one}
	with := func(edit func(*dist.Branch)) [][]dist.Branch {
		b := good
		edit(&b)
		return [][]dist.Branch{{good}, {b}}
	}
	tooMany := make([][]dist.Branch, dist.MaxBranchPlayers+1)
	for i := range tooMany {
		tooMany[i] = []dist.Branch{good}
	}
	for _, c := range []struct {
		name    string
		players [][]dist.Branch
		delta   *big.Rat
	}{
		{"bin 2", with(func(b *dist.Branch) { b.Bin = 2 }), one},
		{"bin -1", with(func(b *dist.Branch) { b.Bin = -1 }), one},
		{"Lo > Hi", with(func(b *dist.Branch) { b.Lo, b.Hi = one, half }), one},
		{"Lo < 0", with(func(b *dist.Branch) { b.Lo = big.NewRat(-1, 2) }), one},
		{"negative mass", [][]dist.Branch{{{Bin: 0, Mass: big.NewRat(-1, 2), Lo: zero, Hi: one}, {Bin: 1, Mass: big.NewRat(3, 2), Lo: zero, Hi: one}}}, one},
		{"masses sum below 1", with(func(b *dist.Branch) { b.Mass = half }), one},
		{"masses sum above 1", [][]dist.Branch{{good, good}}, one},
		{"no branches", [][]dist.Branch{{good}, nil}, one},
		{"nil mass", with(func(b *dist.Branch) { b.Mass = nil }), one},
		{"nil Lo", with(func(b *dist.Branch) { b.Lo = nil }), one},
		{"nil Hi", with(func(b *dist.Branch) { b.Hi = nil }), one},
		{"zero δ", [][]dist.Branch{{good}}, zero},
		{"negative δ", [][]dist.Branch{{good}}, big.NewRat(-1, 1)},
		{"nil δ", [][]dist.Branch{{good}}, nil},
		{"players above the cap", tooMany, one},
	} {
		if got, err := dist.WinProbabilityRat(c.players, c.delta); err == nil {
			t.Errorf("%s: got %v, want a refusal", c.name, got)
		}
	}
	if _, err := dist.WinProbabilityRat(tooMany, one); !errors.Is(err, problem.ErrPlayerCap) {
		t.Errorf("players above the cap: %v does not wrap problem.ErrPlayerCap", err)
	}
}
