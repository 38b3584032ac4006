package dist

import (
	"fmt"
	"testing"
)

// BenchmarkAllSubsetVolumes times one Proposition 2.2 table at n = 16 and
// n = 20; -benchmem reports its four 2^n-entry arrays.
func BenchmarkAllSubsetVolumes(b *testing.B) {
	for _, n := range []int{16, 20} {
		widths := make([]float64, n)
		for i := range widths {
			widths[i] = 0.25 + 0.125*float64(i%5)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := AllSubsetVolumes(nil, widths, float64(n)/3, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
