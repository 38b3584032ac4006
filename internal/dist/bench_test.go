package dist

import (
	"fmt"
	"testing"
)

// BenchmarkAllSubsetVolumes times one Proposition 2.2 table at the
// heterogeneous evaluation sizes n = 12 and 15 and at n = 16 and 20;
// -benchmem reports its four 2^n-entry arrays.
func BenchmarkAllSubsetVolumes(b *testing.B) {
	for _, n := range []int{12, 15, 16, 20} {
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

// BenchmarkTwoBranchKernelBuildSharedBeta times a whole build of the
// kernel for threshold players that share one β on unequal input ranges,
// z = 2 or 5 of them point players (π_i ≤ β) spread over the caller's
// order: the bin-0 class ladder plus the shared-β bin-1 table, one
// radixLadder pass per cardinality over the capable players. The capacity
// alternates between two values so that every build rebuilds every table.
func BenchmarkTwoBranchKernelBuildSharedBeta(b *testing.B) {
	for _, c := range []struct{ n, z int }{{12, 2}, {12, 5}, {15, 2}, {15, 5}} {
		const beta = 0.45
		n := c.n
		a, pi := make([]float64, n), make([]float64, n)
		for i := range pi {
			a[i], pi[i] = beta, 0.5+0.0625*float64(i%9)
		}
		pi[1], pi[n-2] = 0.375, 0.4375
		if c.z == 5 {
			pi[4], pi[6], pi[9] = 0.25, 0.3125, 0.4
		}
		players := thresholdPlayers(a, pi)
		capacities := [2]float64{float64(n) / 3, float64(n)/3 + 0.125}
		b.Run(fmt.Sprintf("n=%d/z=%d", n, c.z), func(b *testing.B) {
			var k TwoBranchKernel
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := k.Build(players, capacities[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTwoBranchKernelBuildSharedEnd times a whole build of the
// kernel for threshold players with distinct thresholds on U[0, 1] inputs
// (Theorem 5.1, π ≡ 1): the bin-0 zeta ladder plus the shared-right-end
// bin-1 table, one radixLadder pass per exponent m > δ up to the last
// whose m smallest thresholds sum to less than δ. The capacity
// alternates between two values so that every build rebuilds every table.
func BenchmarkTwoBranchKernelBuildSharedEnd(b *testing.B) {
	for _, n := range []int{12, 16, 20} {
		a, ones := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], ones[i] = float64(2*i+1)/float64(2*n), 1
		}
		players := thresholdPlayers(a, ones)
		capacities := [2]float64{float64(n) / 3, float64(n)/3 + 0.125}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var k TwoBranchKernel
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := k.Build(players, capacities[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
