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

// ForEachSubsetGray invokes fn for every subset of {0, ..., n-1} in Gray-code
// order, in which consecutive subsets differ in exactly one element. fn
// receives the current mask, the index of the element flipped relative to the
// previous subset, and whether that element was added (true) or removed
// (false). The first call presents the empty set with flipped = -1.
// Iteration stops early if fn returns false.
func ForEachSubsetGray(n int, fn func(mask uint64, flipped int, added bool) bool) error {
	if n < 0 || n > MaxSubsetGround {
		return fmt.Errorf("combin: subset ground size %d out of range [0, %d]", n, MaxSubsetGround)
	}
	if !fn(0, -1, false) {
		return nil
	}
	total := uint64(1) << uint(n)
	prev := uint64(0)
	for i := uint64(1); i < total; i++ {
		cur := i ^ (i >> 1) // binary-reflected Gray code
		diff := cur ^ prev
		flipped := bits.TrailingZeros64(diff)
		added := cur&diff != 0
		if !fn(cur, flipped, added) {
			return nil
		}
		prev = cur
	}
	return nil
}

// ForEachKSubsetMask invokes fn once for every k-element subset of
// {0, ..., n-1}, presented as a bitmask, in colexicographic order produced by
// Gosper's hack. Iteration stops early if fn returns false.
func ForEachKSubsetMask(n, k int, fn func(mask uint64) bool) error {
	if n < 0 || n > MaxSubsetGround || k < 0 {
		return fmt.Errorf("combin: k-subset mask arguments out of range (n=%d, k=%d)", n, k)
	}
	if k > n {
		return nil
	}
	if k == 0 {
		fn(0)
		return nil
	}
	limit := uint64(1) << uint(n)
	mask := uint64(1)<<uint(k) - 1
	for mask < limit {
		if !fn(mask) {
			return nil
		}
		// Gosper's hack: next integer with the same popcount. c is the
		// lowest set bit, a power of two, so dividing by it is a shift.
		c := mask & (^mask + 1)
		r := mask + c
		mask = ((r ^ mask) >> 2 >> uint(bits.TrailingZeros64(c))) | r
	}
	return nil
}

// Popcount returns the number of set bits in mask.
func Popcount(mask uint64) int { return bits.OnesCount64(mask) }

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
