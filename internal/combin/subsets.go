package combin

import (
	"fmt"
	"math/bits"
)

// MaxSubsetGround is the largest ground-set size for which the mask-based
// subset iterators are supported (all 2^n masks must fit comfortably in a
// uint64 loop).
const MaxSubsetGround = 62

// ForEachSubset invokes fn once for every subset of {0, 1, ..., n-1},
// presented as a bitmask. Subsets are visited in increasing mask order,
// starting with the empty set. Iteration stops early if fn returns false.
// It returns an error if n is negative or exceeds MaxSubsetGround.
func ForEachSubset(n int, fn func(mask uint64) bool) error {
	if n < 0 || n > MaxSubsetGround {
		return fmt.Errorf("combin: subset ground size %d out of range [0, %d]", n, MaxSubsetGround)
	}
	total := uint64(1) << uint(n)
	for mask := uint64(0); mask < total; mask++ {
		if !fn(mask) {
			return nil
		}
	}
	return nil
}

// NextKSubsetMask returns the least mask above mask with the same number
// of set bits (Gosper's hack), for a non-zero mask below 2^63. Stepping
// from 1<<k − 1 while the mask stays below 1<<n visits every k-element
// subset of {0, ..., n-1} (k ≥ 1) once, in increasing mask order:
//
//	for mask := uint64(1)<<k - 1; mask < 1<<n; mask = NextKSubsetMask(mask)
//
// It is small enough to inline into such a loop.
func NextKSubsetMask(mask uint64) uint64 {
	// c is the lowest set bit, a power of two, so dividing by it is a
	// shift.
	c := mask & -mask
	r := mask + c
	return (r^mask)>>2>>uint(bits.TrailingZeros64(c)) | r
}

// ForEachComposition invokes fn once for every weak composition of n into k
// non-negative parts, presented as a slice of length k summing to n. The
// slice is reused between calls. Iteration stops early if fn returns false.
func ForEachComposition(n, k int, fn func(parts []int) bool) error {
	if n < 0 || k < 0 {
		return fmt.Errorf("combin: composition with negative argument (n=%d, k=%d)", n, k)
	}
	if k == 0 {
		if n == 0 {
			fn(nil)
		}
		return nil
	}
	parts := make([]int, k)
	parts[0] = n
	for {
		if !fn(parts) {
			return nil
		}
		// Find the rightmost index before the last with a positive part.
		i := k - 2
		for i >= 0 && parts[i] == 0 {
			i--
		}
		if i < 0 {
			return nil
		}
		// Decrement it, move everything to its right into position i+1.
		tail := parts[k-1]
		parts[i]--
		parts[i+1] = tail + 1
		for j := i + 2; j < k; j++ {
			parts[j] = 0
		}
		if i+1 == k-1 {
			continue
		}
		parts[k-1] = 0
	}
}
