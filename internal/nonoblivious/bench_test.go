package nonoblivious

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// BenchmarkWinningProbabilityOpts times the one-shot Theorem 5.1
// evaluation at the profile cap and at MaxNGeneral; -benchmem reports the
// one-shot footprint (every table is allocated per call).
func BenchmarkWinningProbabilityOpts(b *testing.B) {
	for _, n := range []int{16, MaxNGeneral} {
		rng := rand.New(rand.NewPCG(14, uint64(n)))
		ths := make([]float64, n)
		for i := range ths {
			ths[i] = rng.Float64()
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := WinningProbabilityOpts(ths, float64(n)/3, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
