//go:build !purego

package combin

// On amd64 the passes above bit 2 run in SSE2 (zeta_amd64.s): two float64
// lanes per MOVUPD/ADDPD, and each cell receives the additions of
// zetaQuadsGo and zetaPairsGo in their order, so the bits are theirs.
// SSE2 is part of every amd64 CPU that Go runs on, so no feature check is
// needed. The purego build tag selects the portable loops instead.

// zetaQuadsSSE2 is zetaQuadsGo over the size cells at p, for h a multiple
// of 4 and size a multiple of 4h.
//
//go:noescape
func zetaQuadsSSE2(p *float64, size, h int)

// zetaPairsSSE2 is zetaPairsGo over the size cells at p, for h a multiple
// of 4 and size a multiple of 2h.
//
//go:noescape
func zetaPairsSSE2(p *float64, size, h int)

// zetaQuadPass applies bits b and b+1 (h = 2^b ≥ 8) to every aligned quad
// of arr.
func zetaQuadPass(arr []float64, h int) { zetaQuadsSSE2(&arr[0], len(arr), h) }

// zetaPairPass applies bit b (h = 2^b ≥ 8) to every aligned pair of arr.
func zetaPairPass(arr []float64, h int) { zetaPairsSSE2(&arr[0], len(arr), h) }
