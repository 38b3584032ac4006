package nonoblivious

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestWinningProbabilityOptsGoldenBits pins the float64 bits of the
// Theorem 5.1 one-shot WinningProbability on seeded threshold vectors
// (δ = n/3), so a refactor of the table kernels cannot move a single bit
// at any player count up to MaxNGeneral.
func TestWinningProbabilityOptsGoldenBits(t *testing.T) {
	golden := []struct {
		n    int
		bits uint64
	}{
		{2, 0x3fd310d32e9108d9},
		{5, 0x3fda196035bd9f03},
		{9, 0x3fdb5d4bbd4d1540},
		{12, 0x3fe0b32b878633d5},
		{13, 0x3fd0e9e5a60c6bdb},
		{16, 0x3fdf7ceb2f5c451b},
		{17, 0x3fd5ba733b5c8674},
		{20, 0x3fe24d82a2c97c19},
	}
	for _, g := range golden {
		rng := rand.New(rand.NewPCG(14, uint64(g.n)))
		ths := make([]float64, g.n)
		for i := range ths {
			ths[i] = rng.Float64()
		}
		p, err := WinningProbability(ths, float64(g.n)/3, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", g.n, err)
		}
		if got := math.Float64bits(p); got != g.bits {
			t.Errorf("n=%d: bits %#x (%v), want %#x (%v)",
				g.n, got, p, g.bits, math.Float64frombits(g.bits))
		}
	}
}
