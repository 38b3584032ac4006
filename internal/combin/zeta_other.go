//go:build !amd64 || purego

package combin

// Without SSE2 assembly (other GOARCH values, or the purego build tag) the
// passes above bit 2 are the portable loops.

// zetaQuadPass applies bits b and b+1 (h = 2^b ≥ 8) to every aligned quad
// of arr.
func zetaQuadPass(arr []float64, h int) { zetaQuadsGo(arr, h) }

// zetaPairPass applies bit b (h = 2^b ≥ 8) to every aligned pair of arr.
func zetaPairPass(arr []float64, h int) { zetaPairsGo(arr, h) }
