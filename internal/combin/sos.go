package combin

import (
	"fmt"
	"math/bits"
)

// MaxSubsetTable bounds the ground-set size for the table-building helpers
// in this file, which materialize one float64 per subset (8·2^n bytes per
// table; n = 22 is 32 MiB per table).
const MaxSubsetTable = 22

// ChunkGrid is the fixed number of chunks ChunkSpan splits a mask range
// into. The grid depends only on the problem size, so it fixes the
// summation order, and with it the bits, of every chunked mask sum.
const ChunkGrid = 64

// SubsetSums returns sums[mask] = Σ_{i∈mask} vals[i] for every subset mask
// of {0, ..., len(vals)-1}, via the one-pass low-bit recurrence
// sums[mask] = sums[mask without its lowest bit] + vals[lowest bit]. Each
// entry costs one addition, so consecutive-mask walks see fully incremental
// subset-sum state. The table is written to dst when dst has room for its
// 2^n entries, and to a new slice otherwise.
func SubsetSums(dst, vals []float64) ([]float64, error) {
	out, err := subsetTable(dst, len(vals), "subset-sum")
	if err != nil {
		return nil, err
	}
	fillSubsetSums(out, vals)
	return out, nil
}

// SubsetProducts returns prods[mask] = Π_{i∈mask} vals[i] for every subset
// mask of {0, ..., len(vals)-1} (empty product 1), via the same low-bit
// recurrence as SubsetSums, written to dst when it has room.
func SubsetProducts(dst, vals []float64) ([]float64, error) {
	out, err := subsetTable(dst, len(vals), "subset-product")
	if err != nil {
		return nil, err
	}
	fillSubsetProducts(out, vals)
	return out, nil
}

// subsetTable returns the 2^n-entry table of SubsetSums and
// SubsetProducts: dst resliced when its capacity allows, else a new slice.
func subsetTable(dst []float64, n int, what string) ([]float64, error) {
	if n > MaxSubsetTable {
		return nil, fmt.Errorf("combin: %s table for %d elements exceeds the %d-element limit", what, n, MaxSubsetTable)
	}
	size := 1 << uint(n)
	if cap(dst) >= size {
		return dst[:size], nil
	}
	return make([]float64, size), nil
}

// fillSubsetSums writes the low-bit subset-sum recurrence of vals into out
// (2^len(vals) entries).
func fillSubsetSums(out, vals []float64) {
	out[0] = 0
	for mask := uint64(1); mask < uint64(len(out)); mask++ {
		out[mask] = out[mask&(mask-1)] + vals[bits.TrailingZeros64(mask)]
	}
}

// fillSubsetProducts is the multiplicative twin of fillSubsetSums.
func fillSubsetProducts(out, vals []float64) {
	out[0] = 1
	for mask := uint64(1); mask < uint64(len(out)); mask++ {
		out[mask] = out[mask&(mask-1)] * vals[bits.TrailingZeros64(mask)]
	}
}

// SumOverSubsets transforms arr in place into its zeta transform:
// arr[T] becomes Σ_{I⊆T} arr[I]. arr must have length 2^n. It performs the
// additions of the standard bitwise DP — pass b adds every bit-b-clear
// cell into its bit-b-set partner, n·2^(n-1) additions in all — but fuses
// passes so each cell is loaded and stored fewer times: bits 0–2 run in
// registers on aligned 8-cells, and the higher bits run two at a time over
// aligned quads {x, x+h, x+2h, x+3h} (h = 2^b), with a single-bit pass
// left over when their count is odd (ZetaAboveOctets). Every cell still
// receives the same additions in the same order as the one-bit-per-pass
// DP, so the result is bit-identical to it. The passes run serially:
// sharding them costs more CPU than it saves at every table size the exact
// backends build (DESIGN.md, "Exact backend").
func SumOverSubsets(arr []float64, n int) error {
	if err := checkZeta(arr, n); err != nil {
		return err
	}
	switch n {
	case 0:
	case 1:
		zetaPairsGo(arr, 1)
	case 2:
		zetaQuadsGo(arr, 1)
	default:
		zetaOctets(arr)
		zetaAboveOctets(arr, n)
	}
	return nil
}

// ZetaAboveOctets runs the passes of SumOverSubsets above bit 2 on arr
// (2^n entries): bits 3 and 4, 5 and 6, … over aligned quads, and a last
// single-bit pass when n − 3 is odd. After bits 0–2 of every aligned
// 8-cell have been added in place, it completes the zeta transform with
// the bits of SumOverSubsets. For n ≤ 3 it does nothing. A caller that
// fuses its own table fill with the octet pass, as the subset-volume
// ladders do, writes each table once and finishes it here.
func ZetaAboveOctets(arr []float64, n int) error {
	if err := checkZeta(arr, n); err != nil {
		return err
	}
	zetaAboveOctets(arr, n)
	return nil
}

// checkZeta is the argument check of the zeta entries: a ground size
// within the table limit and a table of 2^n entries.
func checkZeta(arr []float64, n int) error {
	if n < 0 || n > MaxSubsetTable {
		return fmt.Errorf("combin: sum-over-subsets ground size %d out of range [0, %d]", n, MaxSubsetTable)
	}
	if size := uint64(1) << uint(n); uint64(len(arr)) != size {
		return fmt.Errorf("combin: sum-over-subsets table length %d, want %d", len(arr), size)
	}
	return nil
}

// zetaAboveOctets runs the quad passes of bits 3 and up and the odd
// bit's pair pass, whose segments hold h ≥ 8 cells: zetaQuadPass and
// zetaPairPass, which are SSE2 kernels on amd64 and the portable loops
// elsewhere.
func zetaAboveOctets(arr []float64, n int) {
	for b := 3; b < n; b += 2 {
		if h := 1 << uint(b); b+1 < n {
			zetaQuadPass(arr, h)
		} else {
			zetaPairPass(arr, h)
		}
	}
}

// zetaOctets applies bits 0, 1 and 2 of the zeta DP to every aligned
// 8-cell of c, in registers.
func zetaOctets(c []float64) {
	for ; len(c) >= 8; c = c[8:] {
		x := (*[8]float64)(c)
		v0, v1, v2, v3, v4, v5, v6, v7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
		v1 += v0
		v3 += v2
		v5 += v4
		v7 += v6
		v2 += v0
		v3 += v1
		v6 += v4
		v7 += v5
		v4 += v0
		v5 += v1
		v6 += v2
		v7 += v3
		x[1], x[2], x[3], x[4], x[5], x[6], x[7] = v1, v2, v3, v4, v5, v6, v7
	}
}

// zetaQuadsGo applies bits b and b+1 (h = 2^b) to every aligned quad
// (a0[i], a1[i], a2[i], a3[i]) of arr — offsets 0, h, 2h and 3h from the
// quad's base: the portable quad pass.
func zetaQuadsGo(arr []float64, h int) {
	for s := 0; s < len(arr); s += 4 * h {
		a0, a1, a2, a3 := arr[s:s+h], arr[s+h:s+2*h], arr[s+2*h:s+3*h], arr[s+3*h:s+4*h]
		for i, v0 := range a0 {
			v1 := a1[i] + v0
			v2 := a2[i] + v0
			v3 := a3[i] + a2[i] + v1
			a1[i], a2[i], a3[i] = v1, v2, v3
		}
	}
}

// zetaPairsGo applies bit b (h = 2^b) to every aligned pair (lo[i],
// hi[i]) of arr: the portable pair pass.
func zetaPairsGo(arr []float64, h int) {
	for s := 0; s < len(arr); s += 2 * h {
		lo, hi := arr[s:s+h], arr[s+h:s+2*h]
		for i, v := range lo {
			hi[i] += v
		}
	}
}

// ReducePartials combines the non-empty per-chunk totals part by a
// fixed-order pairwise tree, overwriting part, and returns the root. A
// mask sum that Neumaier-sums each chunk of the ChunkSpan grid and reduces
// the totals here (dist.PairSum) has bits that depend only on the ground
// set's size.
func ReducePartials(part []float64) float64 {
	for len(part) > 1 {
		half := (len(part) + 1) / 2
		for i := 0; i < len(part)/2; i++ {
			part[i] = part[2*i] + part[2*i+1]
		}
		if len(part)%2 == 1 {
			part[half-1] = part[len(part)-1]
		}
		part = part[:half]
	}
	return part[0]
}

// PowInt returns x^k for k ≥ 0 by binary exponentiation — cheaper and, for
// the small exponents of the inclusion-exclusion kernels, more accurate
// than math.Pow.
func PowInt(x float64, k int) float64 {
	r := 1.0
	for k > 0 {
		if k&1 == 1 {
			r *= x
		}
		x *= x
		k >>= 1
	}
	return r
}

// ChunkSpan splits [0, total) into at most ChunkGrid equal spans: the
// fixed grid of a chunked mask sum.
func ChunkSpan(total uint64) (span, chunks uint64) {
	if total == 0 {
		return 1, 0
	}
	span = (total + ChunkGrid - 1) / ChunkGrid
	return span, (total + span - 1) / span
}
