package dist

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/big"
	"math/bits"
	"math/rand/v2"
	"testing"

	"repro/internal/combin"
)

// TestAllSubsetVolumesMatchesCDF pins every table entry against the exact
// Lemma 2.4 CDF of the same subset (vol = CDF · Πw), taken at the exact
// binary values of the float widths and thresholds.
func TestAllSubsetVolumesMatchesCDF(t *testing.T) {
	widths := []float64{0.5, 1, 0.75, 2, 0.25, 1.5}
	n := len(widths)
	for _, thr := range []float64{0.2, 1, 2.5, 7} {
		vol, stats, err := AllSubsetVolumes(nil, widths, thr, nil)
		if err != nil {
			t.Fatalf("AllSubsetVolumes(t=%v): %v", thr, err)
		}
		if stats.Subsets != 1<<uint(n) {
			t.Fatalf("stats.Subsets = %d, want %d", stats.Subsets, 1<<uint(n))
		}
		if stats.Incremental == 0 {
			t.Fatal("stats.Incremental = 0, want incremental work recorded")
		}
		for mask := uint64(0); mask < uint64(len(vol)); mask++ {
			var sub []*big.Rat
			prod := 1.0
			for i, w := range widths {
				if mask&(1<<uint(i)) != 0 {
					sub = append(sub, new(big.Rat).SetFloat64(w))
					prod *= w
				}
			}
			cdf, err := CDFRat(sub, new(big.Rat).SetFloat64(thr))
			if err != nil {
				t.Fatalf("CDFRat: %v", err)
			}
			f, _ := cdf.Float64()
			want := f * prod
			if math.Abs(vol[mask]-want) > 1e-11*(1+prod) {
				t.Fatalf("t=%v vol[%b] = %v, want %v", thr, mask, vol[mask], want)
			}
		}
	}
}

// TestAllSubsetVolumesZeroWidth checks that zero widths flatten their
// subsets' volumes to zero while leaving disjoint subsets untouched.
func TestAllSubsetVolumesZeroWidth(t *testing.T) {
	vol, _, err := AllSubsetVolumes(nil, []float64{0.5, 0, 1}, 1, nil)
	if err != nil {
		t.Fatalf("AllSubsetVolumes: %v", err)
	}
	for mask := uint64(0); mask < 8; mask++ {
		if mask&2 != 0 {
			if vol[mask] != 0 {
				t.Fatalf("vol[%b] = %v, want 0 for a zero-width subset", mask, vol[mask])
			}
		} else if vol[mask] <= 0 {
			t.Fatalf("vol[%b] = %v, want positive", mask, vol[mask])
		}
	}
	// {0, 2}: Vol{0≤y0≤0.5, 0≤y2≤1, y0+y2 ≤ 1} = 0.5·1 − 0.5²/2 = 0.375.
	if math.Abs(vol[5]-0.375) > 1e-12 {
		t.Fatalf("vol[101] = %v, want 0.375", vol[5])
	}
}

// TestAllSubsetVolumesScratchBitIdentical requires a reused scratch slab
// and destination, still holding an earlier call's tables, to reproduce
// the bits of freshly allocated ones — with the volumes written into the
// destination and no allocation.
func TestAllSubsetVolumesScratchBitIdentical(t *testing.T) {
	widths := make([]float64, 12)
	for i := range widths {
		widths[i] = 0.25 + 0.125*float64(i%5)
	}
	ref, _, err := AllSubsetVolumes(nil, widths, 2.5, nil)
	if err != nil {
		t.Fatalf("AllSubsetVolumes: %v", err)
	}
	slab := make([]float64, 3<<len(widths))
	dst := make([]float64, 1<<len(widths))
	for _, thr := range []float64{4.5, 2.5} {
		got, _, err := AllSubsetVolumes(dst, widths, thr, slab)
		if err != nil {
			t.Fatalf("AllSubsetVolumes(t=%v, slab): %v", thr, err)
		}
		if &got[0] != &dst[0] {
			t.Fatal("volumes not written to the destination")
		}
		if thr != 2.5 {
			continue
		}
		for mask := range got {
			if math.Float64bits(got[mask]) != math.Float64bits(ref[mask]) {
				t.Fatalf("vol[%b] differs with a reused slab (%v vs %v)", mask, got[mask], ref[mask])
			}
		}
	}
	if got := testing.AllocsPerRun(5, func() {
		if _, _, err := AllSubsetVolumes(dst, widths, 2.5, slab); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("AllSubsetVolumes with destination and scratch: %v allocs/op, want 0", got)
	}
}

func TestAllSubsetVolumesRejects(t *testing.T) {
	if _, _, err := AllSubsetVolumes(nil, []float64{-1}, 1, nil); err == nil {
		t.Fatal("accepted a negative width")
	}
	if _, _, err := AllSubsetVolumes(nil, []float64{math.NaN()}, 1, nil); err == nil {
		t.Fatal("accepted a NaN width")
	}
	if _, _, err := AllSubsetVolumes(nil, []float64{1}, math.Inf(1), nil); err == nil {
		t.Fatal("accepted an infinite threshold")
	}
	if _, _, err := AllSubsetVolumes(nil, make([]float64, 40), 1, nil); err == nil {
		t.Fatal("accepted an oversized dimension")
	}
}

// TestAllSubsetVolumesPopcountCoverage sanity-checks that every
// cardinality layer was filled (no pass skipped).
func TestAllSubsetVolumesPopcountCoverage(t *testing.T) {
	widths := []float64{0.5, 0.5, 0.5, 0.5}
	vol, _, err := AllSubsetVolumes(nil, widths, 10, nil) // t beyond support: every CDF is 1
	if err != nil {
		t.Fatalf("AllSubsetVolumes: %v", err)
	}
	for mask := uint64(0); mask < 16; mask++ {
		want := math.Pow(0.5, float64(bits.OnesCount64(mask)))
		if math.Abs(vol[mask]-want) > 1e-12 {
			t.Fatalf("vol[%b] = %v, want full box %v", mask, vol[mask], want)
		}
	}
}

// TestAllSubsetVolumesChecksum pins an FNV-64a checksum of every table
// bit at n = 12 for two width vectors, so the shared volume kernel cannot
// move any entry (not just the ones other tests read).
func TestAllSubsetVolumesChecksum(t *testing.T) {
	cases := []struct {
		name   string
		widths func(i int) float64
		t      float64
		sum    uint64
	}{
		{"graded", func(i int) float64 { return 0.25 + 0.125*float64(i%5) }, 2.5, 0x136f3c7274ca62be},
		{"wide", func(i int) float64 { return 0.1 + 0.3*float64((7*i)%11) }, 4.25, 0xe6161165ccc53b80},
	}
	for _, tc := range cases {
		widths := make([]float64, 12)
		for i := range widths {
			widths[i] = tc.widths(i)
		}
		vol, _, err := AllSubsetVolumes(nil, widths, tc.t, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, v := range vol {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != tc.sum {
			t.Errorf("%s: checksum %#x, want %#x", tc.name, got, tc.sum)
		}
	}
}

// TestRadixLadderFromMatchesFullLadder runs radixLadder from every first
// exponent m0 on seeded offsets and radii: each cell of an exponent ≥ m0
// gets the full ladder's bits, each cell of a skipped exponent gets 0,
// every cell with 1 ≤ |O| < len(t) is emitted exactly once, and the
// returned work counts the passes that ran. Negated offsets with sign −1
// give the same radii, so every cell of that ladder has the same bits.
func TestRadixLadderFromMatchesFullLadder(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 2))
	for _, n := range []int{1, 4, 7, 10} {
		size := 1 << uint(n)
		sub := make([]float64, size)
		for mask := range sub {
			sub[mask] = 2 * rng.Float64() * float64(bits.OnesCount64(uint64(mask)))
		}
		tm := make([]float64, n+1)
		for m := range tm {
			tm[m] = float64(n) * rng.Float64()
		}
		ladder := func(m0 int) ([]float64, []int) {
			out := make([]float64, size)
			seen := make([]int, size)
			work, err := radixLadder(sub, 1, tm, make([]float64, size), n, m0, func(mask uint64, v float64) {
				out[mask] = v
				seen[mask]++
			})
			if err != nil {
				t.Fatal(err)
			}
			passes := uint64(len(tm) - max(m0, 1))
			if m0 > n {
				passes = 0
			}
			u := uint64(size)
			if want := (SubsetVolumeStats{Subsets: u, Incremental: passes * uint64(n) * u / 2, Rebuilt: passes * u}); work != want {
				t.Errorf("n=%d m0=%d: work %+v, want %+v", n, m0, work, want)
			}
			return out, seen
		}
		full, _ := ladder(1)
		neg := make([]float64, size)
		for mask, v := range sub {
			neg[mask] = -v
		}
		if _, err := radixLadder(neg, -1, tm, make([]float64, size), n, 1, func(mask uint64, v float64) {
			if math.Float64bits(v) != math.Float64bits(full[mask]) {
				t.Fatalf("n=%d cell %b: negated offsets %v, offsets %v", n, mask, v, full[mask])
			}
		}); err != nil {
			t.Fatal(err)
		}
		for m0 := 0; m0 <= n+1; m0++ {
			got, seen := ladder(m0)
			for mask := 1; mask < size; mask++ {
				want := full[mask]
				if bits.OnesCount64(uint64(mask)) < m0 {
					want = 0
				}
				if seen[mask] != 1 || math.Float64bits(got[mask]) != math.Float64bits(want) {
					t.Fatalf("n=%d m0=%d cell %b: emitted %d times, %v, want once, %v", n, m0, mask, seen[mask], got[mask], want)
				}
			}
		}
	}
}

// TestAllSubsetVolumesOvershootBound bounds how far the table's cells past
// the support read above the full box Π w. Volumes are clamped only below,
// so a set T with Σ_T w ≤ t reads Π_T w up to rounding of its cancelling
// inclusion–exclusion sum. TwoBranchKernel clamps its CDFs into [0, 1]
// and hides it. Widths k/7 (k = 1…7) and seeded widths in [¼, 1], with t from the
// full support to one past it in steps of ⅛, measured a worst relative
// error of 4.7e-8 (widths 1/7) and a worst absolute error of 1.6e-10 at
// n = 12; nine widths of 2/7 at t = 3 read 1 + 1.6e-11. The bounds below
// leave a factor of two and six.
func TestAllSubsetVolumesOvershootBound(t *testing.T) {
	const relBound, absBound = 1e-7, 1e-9
	rng := rand.New(rand.NewPCG(35, 1))
	for n := 1; n <= 12; n++ {
		for trial := 0; trial < 40; trial++ {
			w := make([]float64, n)
			for i := range w {
				if trial < 7 {
					w[i] = float64(trial+1) / 7
				} else {
					w[i] = 0.25 + 0.75*rng.Float64()
				}
			}
			sums, _ := combin.SubsetSums(nil, w)
			box, _ := combin.SubsetProducts(nil, w)
			for k := 0; k <= 8; k++ {
				tt := sums[len(sums)-1] + float64(k)/8
				vol, _, err := AllSubsetVolumes(nil, w, tt, nil)
				if err != nil {
					t.Fatal(err)
				}
				for s := 1; s < len(vol); s++ {
					if sums[s] > tt {
						continue
					}
					if rel, abs := math.Abs(vol[s]/box[s]-1), math.Abs(vol[s]-box[s]); rel > relBound || abs > absBound {
						t.Fatalf("n=%d widths %v t=%v set %b: volume %v, box %v (relative %.3g, absolute %.3g)", n, w, tt, s, vol[s], box[s], rel, abs)
					}
				}
			}
		}
	}
}

// TestCardinalityLadderBitIdentical requires the equal-width path of
// AllSubsetVolumes to give every cell the bits of the zeta ladder
// (volumeLadder over the subset sums) and to report its own work: seeded
// cases with n = 1…16 equal widths 0, ½, 1 and a random one, at a
// negative t, t = 0, t on the multiples k·w (as a product and as k widths
// summed in order, where a radix is exactly 0) and a random t. A
// reassociated V recurrence (V_m(0) as Σ C(m, r)·g_m(r)) and subset sums
// formed as k·w fail it.
func TestCardinalityLadderBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(40, 1))
	for n := 1; n <= 16; n++ {
		size := 1 << uint(n)
		for _, w := range []float64{0, 0.5, 1, 0.1 + rng.Float64()} {
			widths := make([]float64, n)
			for i := range widths {
				widths[i] = w
			}
			sums, _ := combin.SubsetSums(nil, widths)
			k := 1 + rng.IntN(n)
			for _, thr := range []float64{-rng.Float64(), 0, float64(k) * w, sums[size>>uint(n-k)-1], float64(n) * w * rng.Float64()} {
				want := make([]float64, size)
				if err := volumeLadder(sums, make([]float64, size), make([]float64, size), want, n, thr); err != nil {
					t.Fatal(err)
				}
				got, work, err := AllSubsetVolumes(nil, widths, thr, nil)
				if err != nil {
					t.Fatal(err)
				}
				for s := range want {
					if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
						t.Fatalf("n=%d w=%v t=%v set %b: per cardinality %v, zeta ladder %v", n, w, thr, s, got[s], want[s])
					}
				}
				nn := uint64(n)
				if want := (SubsetVolumeStats{Subsets: uint64(size), Incremental: nn*(nn+1) + nn*(nn+1)*(nn+2)/6}); work != want {
					t.Errorf("n=%d: work %+v, want %+v", n, work, want)
				}
			}
		}
	}
}
