package combin

import (
	"math/bits"
	"testing"
)

func TestForEachSubsetCountsAndOrder(t *testing.T) {
	for n := 0; n <= 10; n++ {
		var masks []uint64
		err := ForEachSubset(n, func(mask uint64) bool {
			masks = append(masks, mask)
			return true
		})
		if err != nil {
			t.Fatalf("ForEachSubset(%d): %v", n, err)
		}
		if len(masks) != 1<<n {
			t.Fatalf("ForEachSubset(%d) visited %d subsets, want %d", n, len(masks), 1<<n)
		}
		for i, m := range masks {
			if m != uint64(i) {
				t.Fatalf("ForEachSubset(%d) visit %d = %d, want increasing mask order", n, i, m)
			}
		}
	}
}

func TestForEachSubsetEarlyStop(t *testing.T) {
	count := 0
	err := ForEachSubset(10, func(mask uint64) bool {
		count++
		return count < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("early stop visited %d subsets, want 5", count)
	}
}

func TestForEachSubsetRangeErrors(t *testing.T) {
	if err := ForEachSubset(-1, func(uint64) bool { return true }); err == nil {
		t.Error("ForEachSubset(-1): expected error")
	}
	if err := ForEachSubset(MaxSubsetGround+1, func(uint64) bool { return true }); err == nil {
		t.Error("ForEachSubset(63): expected error")
	}
}

// kSubsetMasks lists the k-subsets of {0, ..., n-1} as the ladders walk
// them, NextKSubsetMask from 1<<k − 1 while below 1<<n, and the empty set
// alone for k = 0.
func kSubsetMasks(n, k int) []uint64 {
	if k == 0 {
		return []uint64{0}
	}
	var masks []uint64
	for mask := uint64(1)<<uint(k) - 1; mask < 1<<uint(n); mask = NextKSubsetMask(mask) {
		masks = append(masks, mask)
	}
	return masks
}

func TestForEachKSubsetEnumeration(t *testing.T) {
	for n := 0; n <= 10; n++ {
		for k := 0; k <= n+1; k++ {
			visited := kSubsetMasks(n, k)
			want := int64(0)
			if k <= n {
				want = binomial(t, n, k)
			}
			if int64(len(visited)) != want {
				t.Fatalf("k-subset walk (%d, %d) visited %d, want %d", n, k, len(visited), want)
			}
			// Distinct in-range masks of popcount k, C(n, k) of them, are
			// exactly the k-subsets; Gosper's hack visits them ascending.
			for i, m := range visited {
				if bits.OnesCount64(m) != k || m >= 1<<uint(n) {
					t.Fatalf("mask %b is not a %d-subset of [0, %d)", m, k, n)
				}
				if i > 0 && m <= visited[i-1] {
					t.Fatalf("masks %b, %b not in increasing order", visited[i-1], m)
				}
			}
		}
	}
}

// TestNextKSubsetMaskEndsWalk requires the step from the last k-subset of
// {0, ..., n-1} to leave the ground set, for every n up to 62, so that
// the walk's bound ends it.
func TestNextKSubsetMaskEndsWalk(t *testing.T) {
	for n := 1; n <= 62; n++ {
		for k := 1; k <= n; k++ {
			last := (uint64(1)<<uint(k) - 1) << uint(n-k)
			if next := NextKSubsetMask(last); next < 1<<uint(n) || bits.OnesCount64(next) != k {
				t.Fatalf("n=%d k=%d: step from the last subset %#x gives %#x", n, k, last, next)
			}
		}
	}
}

// kSubsetsRef lists the k-subsets of [0, n) as index slices, by the
// textbook recursion on whether n-1 is in the subset.
func kSubsetsRef(n, k int) [][]int {
	if k == 0 {
		return [][]int{{}}
	}
	if k > n {
		return nil
	}
	out := kSubsetsRef(n-1, k)
	for _, s := range kSubsetsRef(n-1, k-1) {
		out = append(out, append(append([]int(nil), s...), n-1))
	}
	return out
}

func TestForEachKSubsetMaskMatchesSliceVersion(t *testing.T) {
	for n := 0; n <= 10; n++ {
		for k := 0; k <= n; k++ {
			want := make(map[uint64]bool)
			for _, idx := range kSubsetsRef(n, k) {
				var m uint64
				for _, i := range idx {
					m |= 1 << uint(i)
				}
				want[m] = true
			}
			got := make(map[uint64]bool)
			for _, mask := range kSubsetMasks(n, k) {
				if bits.OnesCount64(mask) != k {
					t.Fatalf("mask %b has popcount %d, want %d", mask, bits.OnesCount64(mask), k)
				}
				got[mask] = true
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: mask version visited %d, slice version %d", n, k, len(got), len(want))
			}
			for m := range want {
				if !got[m] {
					t.Fatalf("n=%d k=%d: mask %b missing from mask enumeration", n, k, m)
				}
			}
		}
	}
}

func TestForEachCompositionEnumeration(t *testing.T) {
	for n := 0; n <= 8; n++ {
		for k := 1; k <= 5; k++ {
			count := 0
			seen := make(map[string]bool)
			err := ForEachComposition(n, k, func(parts []int) bool {
				if len(parts) != k {
					t.Fatalf("composition %v has %d parts, want %d", parts, len(parts), k)
				}
				sum := 0
				key := ""
				for _, p := range parts {
					if p < 0 {
						t.Fatalf("negative part in %v", parts)
					}
					sum += p
					key += string(rune('a'+p)) + ","
				}
				if sum != n {
					t.Fatalf("composition %v sums to %d, want %d", parts, sum, n)
				}
				if seen[key] {
					t.Fatalf("composition %v visited twice", parts)
				}
				seen[key] = true
				count++
				return true
			})
			if err != nil {
				t.Fatalf("ForEachComposition(%d, %d): %v", n, k, err)
			}
			want := binomial(t, n+k-1, k-1)
			if int64(count) != want {
				t.Fatalf("ForEachComposition(%d, %d) visited %d, want %d", n, k, count, want)
			}
		}
	}
}

func TestForEachCompositionEdgeCases(t *testing.T) {
	// k = 0: exactly one (empty) composition when n = 0, none otherwise.
	calls := 0
	if err := ForEachComposition(0, 0, func([]int) bool { calls++; return true }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("ForEachComposition(0, 0) visited %d, want 1", calls)
	}
	calls = 0
	if err := ForEachComposition(3, 0, func([]int) bool { calls++; return true }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("ForEachComposition(3, 0) visited %d, want 0", calls)
	}
	if err := ForEachComposition(-1, 2, func([]int) bool { return true }); err == nil {
		t.Error("ForEachComposition(-1, 2): expected error")
	}
}

// TestKSubsetMaskMatchesDivisionForm checks the shift form of Gosper's
// step against the textbook division form, mask by mask, for every n ≤ 16
// and every k.
func TestKSubsetMaskMatchesDivisionForm(t *testing.T) {
	for n := 0; n <= 16; n++ {
		for k := 0; k <= n+1; k++ {
			var want []uint64
			if k == 0 {
				want = append(want, 0)
			} else if k <= n {
				for mask := uint64(1)<<uint(k) - 1; mask < uint64(1)<<uint(n); {
					want = append(want, mask)
					c := mask & (^mask + 1)
					r := mask + c
					mask = (((r ^ mask) >> 2) / c) | r
				}
			}
			got := kSubsetMasks(n, k)
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: %d masks, division form gives %d", n, k, len(got), len(want))
			}
			for i, mask := range got {
				if mask != want[i] {
					t.Fatalf("n=%d k=%d: mask %d = %#x, division form gives %#x", n, k, i, mask, want[i])
				}
			}
		}
	}
}
