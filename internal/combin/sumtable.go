package combin

import (
	"fmt"
	"math/bits"
)

// SumTable is a reusable subset-sum table: sums[mask] = Σ_{i∈mask} vals[i]
// for every subset mask of a fixed n-element ground set. Unlike SubsetSums
// it owns its storage across rebuilds (Build reuses the allocated table)
// and supports SetCoord, which re-propagates only the 2^(n-1) masks
// containing the changed coordinate.
//
// Both Build and SetCoord apply the same low-bit recurrence
//
//	out[mask] = out[mask without its lowest bit] + vals[lowest bit]
//
// so a table updated by any sequence of SetCoord calls is bit-identical to
// one rebuilt from scratch: for a mask whose lowest bit IS the changed
// coordinate i, the recurrence parent mask&(mask-1) excludes i and is
// unchanged; for every other mask containing i the parent also contains i
// and was already re-propagated (masks are visited in increasing order).
// Either way each entry is recomputed from exactly the operands a fresh
// Build would use.
type SumTable struct {
	n    int
	vals []float64
	out  []float64
}

// NewSumTable allocates a subset-sum table over an n-element ground set.
func NewSumTable(n int) (*SumTable, error) {
	if n < 0 || n > MaxSubsetTable {
		return nil, fmt.Errorf("combin: sum table ground size %d out of range [0, %d]", n, MaxSubsetTable)
	}
	return &SumTable{
		n:    n,
		vals: make([]float64, n),
		out:  make([]float64, uint64(1)<<uint(n)),
	}, nil
}

// N returns the ground-set size.
func (t *SumTable) N() int { return t.n }

// Values returns the table, indexed by subset mask. The slice is owned by
// the table and rewritten by Build and SetCoord; callers must not modify
// it.
func (t *SumTable) Values() []float64 { return t.out }

// Build fills the table for vals, reusing the allocated storage. The
// result is bit-identical to SubsetSums(nil, vals).
func (t *SumTable) Build(vals []float64) error {
	if len(vals) != t.n {
		return fmt.Errorf("combin: sum table built for %d elements, got %d", t.n, len(vals))
	}
	copy(t.vals, vals)
	fillSubsetSums(t.out, t.vals)
	return nil
}

// SetCoord changes coordinate i to v and re-propagates the 2^(n-1) masks
// containing i with the build recurrence, leaving the table bit-identical
// to a fresh Build of the updated value vector.
func (t *SumTable) SetCoord(i int, v float64) error {
	if i < 0 || i >= t.n {
		return fmt.Errorf("combin: sum table coordinate %d out of range [0, %d)", i, t.n)
	}
	t.vals[i] = v
	forEachMaskContaining(t.n, i, func(mask uint64) {
		t.out[mask] = t.out[mask&(mask-1)] + t.vals[bits.TrailingZeros64(mask)]
	})
	return nil
}

// ProductTable is the multiplicative twin of SumTable:
// prods[mask] = Π_{i∈mask} vals[i] with empty product 1, rebuilt in place
// and delta-updated by the same low-bit recurrence (so SetCoord is likewise
// bit-identical to a fresh Build).
type ProductTable struct {
	n    int
	vals []float64
	out  []float64
}

// NewProductTable allocates a subset-product table over an n-element
// ground set.
func NewProductTable(n int) (*ProductTable, error) {
	if n < 0 || n > MaxSubsetTable {
		return nil, fmt.Errorf("combin: product table ground size %d out of range [0, %d]", n, MaxSubsetTable)
	}
	return &ProductTable{
		n:    n,
		vals: make([]float64, n),
		out:  make([]float64, uint64(1)<<uint(n)),
	}, nil
}

// N returns the ground-set size.
func (t *ProductTable) N() int { return t.n }

// Values returns the table, indexed by subset mask. The slice is owned by
// the table and rewritten by Build and SetCoord; callers must not modify
// it.
func (t *ProductTable) Values() []float64 { return t.out }

// Build fills the table for vals, reusing the allocated storage. The
// result is bit-identical to SubsetProducts(nil, vals).
func (t *ProductTable) Build(vals []float64) error {
	if len(vals) != t.n {
		return fmt.Errorf("combin: product table built for %d elements, got %d", t.n, len(vals))
	}
	copy(t.vals, vals)
	fillSubsetProducts(t.out, t.vals)
	return nil
}

// SetCoord changes coordinate i to v and re-propagates the 2^(n-1) masks
// containing i, bit-identical to a fresh Build of the updated vector.
func (t *ProductTable) SetCoord(i int, v float64) error {
	if i < 0 || i >= t.n {
		return fmt.Errorf("combin: product table coordinate %d out of range [0, %d)", i, t.n)
	}
	t.vals[i] = v
	forEachMaskContaining(t.n, i, func(mask uint64) {
		t.out[mask] = t.out[mask&(mask-1)] * t.vals[bits.TrailingZeros64(mask)]
	})
	return nil
}

// forEachMaskContaining visits every mask of the n-bit lattice containing
// bit i in increasing mask order: the 2^(n-1) masks lo | 1<<i | hi<<(i+1)
// enumerated by interleaving the i low bits with the n-1-i high bits.
func forEachMaskContaining(n, i int, fn func(mask uint64)) {
	bit := uint64(1) << uint(i)
	lowSize := bit                       // 2^i low-bit patterns
	highSize := uint64(1) << uint(n-i-1) // 2^(n-1-i) high-bit patterns
	for high := uint64(0); high < highSize; high++ {
		base := high<<uint(i+1) | bit
		for low := uint64(0); low < lowSize; low++ {
			fn(base | low)
		}
	}
}

// ChunkSpan splits [0, total) into at most ChunkGrid equal spans,
// independent of the worker count — the fixed grid every chunked reduction
// in this package shards on. Exported so reusable evaluators can replicate
// ChunkedMaskSum's exact summation order into caller-owned buffers.
func ChunkSpan(total uint64) (span, chunks uint64) { return chunkSpan(total) }

// ChunkGrid is the fixed chunk count of the sharded reductions (see
// sumChunkGrid).
const ChunkGrid = sumChunkGrid
