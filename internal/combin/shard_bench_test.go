//go:build unix

package combin

import (
	"fmt"
	"syscall"
	"testing"
	"time"
)

// processCPU returns the user plus system CPU time the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkShardCrossover times the sharded and serial paths of
// ChunkedMaskSum with the size gate bypassed, so the cutoff
// maskSumShardMasks can be re-measured:
//
//	make bench PKG=./internal/combin BENCHTIME=300x
//
// Each sub-benchmark reports wall time (ns/op) and process CPU time
// (cpu-ns/op); sharding pays at a size when the workers=2 run saves wall
// time without costing much more CPU than workers=1. The term is one
// product of two table reads, the cost of the shared-threshold π path's
// term.
func BenchmarkShardCrossover(b *testing.B) {
	for _, n := range []int{12, 13, 14, 15, 16, 18, 19, 20} {
		arr := make([]float64, 1<<uint(n))
		for i := range arr {
			arr[i] = float64(i%7) - 3
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("masksum/n=%d/workers=%d", n, workers), func(b *testing.B) {
				full := uint64(len(arr) - 1)
				makeTerm := func() func(uint64) float64 {
					return func(mask uint64) float64 { return arr[full&^mask] * arr[mask] }
				}
				cpu := processCPU(b)
				for i := 0; i < b.N; i++ {
					if _, _, err := chunkedMaskSum(n, workers, makeTerm); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(processCPU(b)-cpu)/float64(b.N), "cpu-ns/op")
			})
		}
	}
}
