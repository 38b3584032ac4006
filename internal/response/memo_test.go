package response

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/combin"
	"repro/internal/dist"
)

// unmemoizedVectorWin is vectorWin without the region-mass memo: one
// fresh jointMass per side per decision vector, summed in mask order.
func unmemoizedVectorWin(bin0, bin1 []IntervalSet, capacity float64) float64 {
	n := len(bin0)
	var total combin.Accumulator
	var zeroSets, oneSets []IntervalSet
	for b := uint64(0); b < 1<<uint(n); b++ {
		zeroSets, oneSets = zeroSets[:0], oneSets[:0]
		for i := 0; i < n; i++ {
			if b&(1<<uint(i)) == 0 {
				zeroSets = append(zeroSets, bin0[i])
			} else {
				oneSets = append(oneSets, bin1[i])
			}
		}
		m0 := unmemoizedJointMass(zeroSets, capacity)
		if m0 == 0 {
			continue
		}
		total.Add(m0 * unmemoizedJointMass(oneSets, capacity))
	}
	return dist.Clamp01(total.Sum())
}

func unmemoizedJointMass(regions []IntervalSet, capacity float64) float64 {
	m := len(regions)
	if m == 0 {
		return 1
	}
	var acc combin.Accumulator
	widths := make([]float64, m)
	ones := make([]int, m)
	for i := range ones {
		ones[i] = 1
	}
	var recurse func(idx int, lowSum float64)
	recurse = func(idx int, lowSum float64) {
		if idx == m {
			acc.Add(boxVolume(widths, ones, capacity-lowSum))
			return
		}
		for _, iv := range regions[idx].intervals {
			if w := iv.Hi - iv.Lo; w > 0 {
				widths[idx] = w
				recurse(idx+1, lowSum+iv.Lo)
			}
		}
	}
	recurse(0, 0)
	return acc.Sum()
}

// randomPair draws one player's (bin0, bin1) regions: a band or a
// threshold, and its complement, both cut to a random window as a
// conditioning bit would cut them.
func randomPair(t *testing.T, rng *rand.Rand) (IntervalSet, IntervalSet) {
	t.Helper()
	a, b := rng.Float64(), rng.Float64()
	lo, hi := min(a, b), max(a, b)
	if rng.IntN(2) == 0 {
		lo = 0
	}
	s, err := NewIntervalSet([]Interval{{Lo: lo, Hi: hi}})
	if err != nil {
		t.Fatal(err)
	}
	wlo, whi := 0.0, 1.0
	if rng.IntN(2) == 0 {
		c := rng.Float64()
		if rng.IntN(2) == 0 {
			whi = c
		} else {
			wlo = c
		}
	}
	s0, err := s.Intersect(wlo, whi)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := s.Complement().Intersect(wlo, whi)
	if err != nil {
		t.Fatal(err)
	}
	return s0, s1
}

// TestVectorWinMemoIsBitIdentical requires WinProbabilityVectorPairs to
// return the bits of the unmemoized sum on seeded random instances of
// three shapes: comm-like (a sender, then listeners with one shared
// threshold built afresh per player, so equal sets are distinct slices),
// all-distinct regions, and a mix drawn from a small pool.
func TestVectorWinMemoIsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 5))
	for n := 2; n <= 10; n++ {
		for _, shape := range []string{"comm", "distinct", "mixed"} {
			bin0 := make([]IntervalSet, n)
			bin1 := make([]IntervalSet, n)
			switch shape {
			case "comm":
				bin0[0], bin1[0] = randomPair(t, rng)
				beta := rng.Float64()
				for i := 1; i < n; i++ {
					l, err := Threshold(beta)
					if err != nil {
						t.Fatal(err)
					}
					bin0[i], bin1[i] = l, l.Complement()
				}
			case "distinct":
				for i := range bin0 {
					bin0[i], bin1[i] = randomPair(t, rng)
				}
			case "mixed":
				var pool [3][2]IntervalSet
				for j := range pool {
					pool[j][0], pool[j][1] = randomPair(t, rng)
				}
				for i := range bin0 {
					p := pool[rng.IntN(len(pool))]
					bin0[i], bin1[i] = p[0], p[1]
				}
			}
			capacity := float64(n) * (0.2 + 0.3*rng.Float64())
			name := fmt.Sprintf("n=%d %s δ=%v", n, shape, capacity)
			got, err := WinProbabilityVectorPairs(bin0, bin1, capacity)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want := unmemoizedVectorWin(bin0, bin1, capacity); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: memoized %v, unmemoized %v", name, got, want)
			}
		}
	}
}
