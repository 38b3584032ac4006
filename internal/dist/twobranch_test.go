package dist

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/combin"
)

// maxThresholdPi is the player cap of the threshold π evaluator, the
// kernel's largest walk-path caller.
const maxThresholdPi = 15

// thresholdPlayers are the Theorem 5.1 two-branch players of thresholds a
// on inputs U[0, π_i].
func thresholdPlayers(a, pi []float64) []TwoBranch {
	players := make([]TwoBranch, len(a))
	for i, w := range pi {
		c := math.Min(a[i], w)
		players[i] = TwoBranch{Mass0: c / w, Hi0: c, Mass1: (w - c) / w, Lo1: c, Hi1: w}
	}
	return players
}

// TestSharedBin1TableMatchesWalk compares every entry of the
// shared-threshold bin-1 table, as a volume, with the per-set walk
// (tailVolumeDFS, behind the same whole-box shortcut) for n up to the
// threshold π cap, including the sets with a player that can never choose
// bin 1, whose volume is 0.
//
// It then compares every bin-1 CDF of the shared-right-end table with
// walkBin1's, cell by cell, on threshold players whose bin-1 intervals
// [a_i, h] end at one h, n = 2…15: π ≡ 1 with distinct thresholds, and a
// common π = c < 1 with distinct thresholds of which about a third reach
// c (point players, whose sets get 0 in both). walkBin1 runs behind an
// all-ones bin-0 table, so it computes every set. The largest gap
// measured was 6.5e-13 (n = 15, h = 1); the tolerance leaves a factor of
// ten. The sets with |S|·h ≤ δ must fit whole (CDF exactly 1), and some
// set per n must need the ladder.
func TestSharedBin1TableMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 3))
	for n := 2; n <= maxThresholdPi; n++ {
		capacity := float64(n) * (0.2 + 0.3*rng.Float64())
		beta := rng.Float64()
		highs := make([]float64, n)
		var bad uint64
		for i := range highs {
			if w := 0.5 + rng.Float64() - beta; w > 0 {
				highs[i] = w
			} else {
				bad |= 1 << uint(i)
			}
		}
		wSums, _ := combin.SubsetSums(nil, highs)
		wProd, _ := combin.SubsetProducts(nil, highs)
		mmax := 0
		for m := 1; m <= n-bits.OnesCount64(bad) && float64(m)*beta < capacity; m++ {
			mmax = m
		}
		c1 := make([]float64, len(wSums))
		radix := shiftRadix(nil, capacity, beta, n-bits.OnesCount64(bad))
		if _, err := sharedBin1Table(c1, make([]float64, 2*len(c1)), highs, bad, radix, 1); err != nil {
			t.Fatal(err)
		}
		walked := 0
		for s := uint64(1); s < uint64(len(c1)); s++ {
			m := bits.OnesCount64(s)
			want := 0.0
			if t := capacity - float64(m)*beta; s&bad == 0 && m <= mmax && t > 0 {
				if t >= wSums[s] {
					want = wProd[s]
				} else {
					var ws []float64
					for i := 0; i < n; i++ {
						if s&(1<<uint(i)) != 0 {
							ws = append(ws, highs[i])
						}
					}
					sort.Float64s(ws)
					f, _ := combin.FactorialFloat(m)
					want, _ = tailVolumeDFS(ws, t, m, 1/f)
					want = math.Max(want, 0)
					walked++
				}
			}
			if got := c1[s] * wProd[s]; math.Abs(got-want) > 1e-12 {
				t.Fatalf("n=%d β=%v δ=%v set %b: table %v, walk %v", n, beta, capacity, s, got, want)
			}
		}
		if walked == 0 {
			t.Errorf("n=%d β=%v δ=%v: no set needed inclusion-exclusion", n, beta, capacity)
		}
	}
	const tol = 6.5e-12
	rng = rand.New(rand.NewPCG(42, 1))
	for n := 2; n <= 15; n++ {
		laddered := false
		for _, h := range []float64{1, 0.5 + 0.375*rng.Float64()} {
			capacity := float64(n) * h * (0.25 + 0.3*rng.Float64())
			lo, widths := make([]float64, n), make([]float64, n)
			var point uint64
			for i := range lo {
				lo[i] = h * (0.2 + 0.7*rng.Float64())
				if h < 1 && i%3 == 1 {
					lo[i] = h // a threshold at or past c
				}
				if widths[i] = h - lo[i]; widths[i] == 0 {
					point |= 1 << uint(i)
				}
			}
			size := 1 << uint(n)
			got := make([]float64, size)
			radix := endRadix(nil, capacity, h, n-bits.OnesCount64(point))
			if _, err := sharedBin1Table(got, make([]float64, 2*size), widths, point, radix, -1); err != nil {
				t.Fatal(err)
			}
			want, _ := combin.SubsetProducts(nil, widths)
			wSums, _ := combin.SubsetSums(nil, widths)
			aSums, _ := combin.SubsetSums(nil, lo)
			ones := make([]float64, size)
			for i := range ones {
				ones[i] = 1
			}
			walkBin1(want, ones, wSums, aSums, widths, point, capacity)
			for s := 1; s < size; s++ {
				m := bits.OnesCount64(uint64(s))
				if d := math.Abs(got[s] - want[s]); d > tol {
					t.Fatalf("n=%d h=%v δ=%v set %b: table %v, walk %v, |Δ| = %.3g", n, h, capacity, s, got[s], want[s], d)
				}
				if uint64(s)&point == 0 && float64(m)*h <= capacity && got[s] != 1 {
					t.Fatalf("n=%d h=%v δ=%v set %b: CDF %v of a whole box", n, h, capacity, s, got[s])
				}
				laddered = laddered || got[s] > 0 && got[s] < 1
			}
		}
		if !laddered {
			t.Errorf("n=%d: no set needed the ladder", n)
		}
	}
}

// TestSharedThresholdPathSelection checks through the kernel's work
// counters which tables each input builds. A shared threshold β below
// every π_i gives every player the bin-0 width β, so the bin-0 table is
// the per-cardinality ladder (n+1 ladder cells and m(m+1)/2 additions per
// exponent), and builds the bin-1 ladder (a second 2^n-cell table). The
// same β with two players whose π_i ≤ β (point players in bin 1) builds
// the bin-0 class ladder and a bin-1 ladder over the 2^(n−2) subsets of
// the others. A vector with one threshold nudged by an ulp, or with
// one threshold at 0 (a player with no bin-0 width, so half the sets need
// no walk), keeps the per-set walk, and oblivious players (zero shifts,
// equal widths) reuse the bin-0 table, so each of the last three builds
// exactly one volume table. The nudged and zeroed rows' counters are
// those the per-class threshold π evaluator recorded on the same
// instances before this kernel replaced it, so the kernel does no more
// work; the shared-β rows now do less. The shared and walked values agree
// within 1e-12.
//
// The point-player row's bin-0 table is the class ladder with c = n − 2
// capable players and z = 2 points (π_0 = ¼ < β and π_{n−1} = β, whose
// bin-0 width β is a point's all the same). Its doc comment's formula
// 2^z·(n(c+1) + c(c+1)(c+2)/6 + z·c(c+1)/2) + (c+1)·z²·2^(z−1) gives
// 4·(n(n−1) + n(n−1)(n−2)/6 + (n−1)(n−2)) + 8(n−1) incremental steps:
// 112, 476, 1200 and 2392 at n = 4, 7, 10 and 13, to which the bin-1
// ladder adds 0, 240, 3072 and 56320.
//
// Threshold players on U[0, 1] inputs (π ≡ 1) take the table their load
// intervals allow: distinct thresholds share the right end 1, so the
// bin-1 table is the shared-right-end ladder over all 2^n sets, one pass
// per exponent m > δ whose m smallest thresholds sum to less than δ (a
// larger sum leaves no m-set any mass); equal thresholds share the shift, so they take the
// per-cardinality bin-0 ladder and the shared-β table; and equal ones
// with a player at 0 and one at 1 (a point player) share the right end
// over the 2^(n−1) subsets of the others. Their bits are pinned.
// Oblivious players at α_i = π_i = ½ keep the c₁ = c₀ path's pinned bits.
// A one-ulp change to one player's Hi1, built into a kernel that held the
// shared-right-end table for the same loads, falls back to the walk with
// a fresh kernel's bits and work, and within 1e-13 of the ladder's value,
// also for a right end h = ¾.
func TestSharedThresholdPathSelection(t *testing.T) {
	// Subsets, incremental and rebuilt steps: shared β, nudged β, zeroed,
	// shared β with two point players.
	thresholdWork := map[int][4]SubsetVolumeStats{
		4:  {{32, 72, 16}, {16, 192, 16}, {16, 192, 19}, {20, 112, 0}},
		7:  {{256, 1484, 384}, {128, 4032, 456}, {128, 4032, 415}, {160, 476 + 240, 96}},
		10: {{2048, 20810, 4096}, {1024, 61440, 11346}, {1024, 61440, 9778}, {1280, 1200 + 3072, 768}},
		13: {{16384, 266877, 40960}, {8192, 798720, 257409}, {8192, 798720, 199478}, {10240, 2392 + 56320, 10240}},
	}
	// Bits of π ≡ 1 distinct, equal and edge thresholds, then oblivious ½.
	pinnedBits := map[int][4]uint64{
		4:  {0x3fde715905447a35, 0x3fd6a10770440b4f, 0x3fdee6c4179ae798, 0x3fef61f9add3c0d0},
		7:  {0x3fe01fa898315969, 0x3fd54a7325abd552, 0x3fdba3bd0fce0460, 0x3feff0b1aca4188e},
		10: {0x3fe047bfaa3ec028, 0x3fd30a2a1be66be8, 0x3fd83907d6d6ae6d, 0x3feffe6e5ac7c525},
		13: {0x3fe04a8125b7a975, 0x3fd151a1b6f0a702, 0x3fd59f169875f944, 0x3fefffd53d3e12e0},
	}
	rng := rand.New(rand.NewPCG(20, 4))
	for n := 4; n <= maxThresholdPi; n += 3 {
		pis := make([]float64, n)
		for i := range pis {
			pis[i] = 0.5 + 0.5*rng.Float64()
		}
		capacity := float64(n) / 3
		shared := make([]float64, n)
		for i := range shared {
			shared[i] = 0.45
		}
		nudged := append([]float64(nil), shared...)
		nudged[n/2] = math.Nextafter(shared[n/2], 1)
		zeroed := append([]float64(nil), shared...)
		zeroed[0] = 0
		points := append([]float64(nil), pis...)
		points[0], points[n-1] = 0.25, 0.45
		oblivious := make([]TwoBranch, n)
		halves := make([]TwoBranch, n)
		ones := make([]float64, n)
		distinct := make([]float64, n)
		for i, w := range pis {
			oblivious[i] = TwoBranch{Mass0: shared[i], Hi0: w, Mass1: 1 - shared[i], Hi1: w}
			halves[i] = TwoBranch{Mass0: 0.5, Hi0: 0.5, Mass1: 0.5, Hi1: 0.5}
			ones[i] = 1
			distinct[i] = float64(2*i+1) / float64(2*n)
		}
		edges := append([]float64(nil), shared...)
		edges[0], edges[n-1] = 0, 1
		size := uint64(1) << uint(n)
		bin0 := SubsetVolumeStats{Subsets: size, Incremental: uint64(n)*size + uint64(n*n)*size/2}
		nn := uint64(n)
		equal := SubsetVolumeStats{Subsets: size, Incremental: nn*(nn+1) + nn*(nn+1)*(nn+2)/6}
		// The shared-right-end ladder runs over the subsets of the c
		// players with these shifts, from the first exponent m > δ up to
		// the last whose m smallest shifts sum to less than δ.
		endLadder := func(shifts []float64) SubsetVolumeStats {
			c := len(shifts)
			sorted := append([]float64(nil), shifts...)
			sort.Float64s(sorted)
			u, passes, least := uint64(1)<<uint(c), uint64(0), 0.0
			for m := 1; m <= c; m++ {
				if least += sorted[m-1]; float64(m) > capacity && least < capacity {
					passes++
				}
			}
			return SubsetVolumeStats{Subsets: u, Incremental: passes * uint64(c) * u / 2, Rebuilt: passes * u}
		}
		// The shared-β ladder runs from the first exponent with a set
		// wider than t_m through the last with t_m > 0.
		shiftLadder := SubsetVolumeStats{Subsets: size}
		for m, aSum, wSum := 1, 0.45, 1-0.45; m <= n && capacity-aSum > 0; m, aSum, wSum = m+1, aSum+0.45, wSum+(1-0.45) {
			if wSum > capacity-aSum || shiftLadder.Rebuilt > 0 {
				shiftLadder.Incremental += nn * size / 2
				shiftLadder.Rebuilt += size
			}
		}
		rows := []struct {
			name    string
			players []TwoBranch
			work    SubsetVolumeStats
		}{
			{"shared β", thresholdPlayers(shared, pis), thresholdWork[n][0]},
			{"nudged β", thresholdPlayers(nudged, pis), thresholdWork[n][1]},
			{"zeroed", thresholdPlayers(zeroed, pis), thresholdWork[n][2]},
			{"oblivious", oblivious, bin0},
			{"π ≡ 1 distinct", thresholdPlayers(distinct, ones), bin0.Add(endLadder(distinct))},
			{"π ≡ 1 equal", thresholdPlayers(shared, ones), equal.Add(shiftLadder)},
			{"π ≡ 1 edges", thresholdPlayers(edges, ones), bin0.Add(endLadder(edges[:n-1]))},
			{"oblivious ½", halves, equal},
			{"shared β, points", thresholdPlayers(shared, points), thresholdWork[n][3]},
		}
		p := make([]float64, len(rows))
		for i, r := range rows {
			k := new(TwoBranchKernel)
			if err := k.Build(r.players, capacity); err != nil {
				t.Fatal(err)
			}
			p[i] = k.Sum()
			if got := k.Stats(); got != r.work {
				t.Errorf("n=%d %s: work %+v, want %+v", n, r.name, got, r.work)
			}
		}
		if math.Abs(p[0]-p[1]) > 1e-12 {
			t.Errorf("n=%d: shared-β table %v vs walk %v", n, p[0], p[1])
		}
		for j, want := range pinnedBits[n] {
			if got := math.Float64bits(p[4+j]); got != want {
				t.Errorf("n=%d %s: bits %#x, want %#x", n, rows[4+j].name, got, want)
			}
		}
		for _, h := range []float64{1, 0.75} {
			players := make([]TwoBranch, n)
			for i, a := range distinct {
				players[i] = TwoBranch{Mass0: a * h, Hi0: a * h, Mass1: h - a*h, Lo1: a * h, Hi1: h}
			}
			var k TwoBranchKernel
			if err := k.Build(players, capacity); err != nil {
				t.Fatal(err)
			}
			if k.Stats().Subsets != 2*size {
				t.Errorf("n=%d h=%v: %d subset cells, want the 2·2^n of the shared-right-end ladder", n, h, k.Stats().Subsets)
			}
			ladder := k.Sum()
			players[n/2].Hi1 = math.Nextafter(h, 2)
			if err := k.Build(players, capacity); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("n=%d h=%v, one Hi1 moved an ulp", n, h)
			if k.Stats().Subsets != size {
				t.Errorf("%s: %d subset cells, want the 2^n of the walk", what, k.Stats().Subsets)
			}
			if math.Abs(k.Sum()-ladder) > 1e-13 {
				t.Errorf("%s: walk %v, shared-right-end ladder %v", what, k.Sum(), ladder)
			}
			sameAsFresh(t, what, &k, players, capacity, nil)
		}
	}
}

// TestSharedBin1TableSkipBitIdentical checks that starting the bin-1
// ladder past the whole-box exponents changes no bit: for n up to the
// threshold π cap the table equals one whose ladder runs every exponent
// from 1 with the same emit rule, and at least one instance per n skips an
// exponent, for a shared shift β and for a shared right end h. The last
// shared-β instance per n puts one width a step above t_1, so exactly one
// single set misses its whole box and the first exponent must run. The
// right-end ladder also ends at its last exponent with a positive radix:
// the reference runs every exponent, so the skipped cells must hold the
// signed zeros the passes give them, −0 for odd m. A sixth instance per n
// takes widths h − a_i under shifts a_i and puts δ half a shift past the
// sum of the ⌊(n−1)/2⌋ smallest, so that the ladder ends early with a −0
// cell.
func TestSharedBin1TableSkipBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1))
	for n := 2; n <= maxThresholdPi; n++ {
		skipped, ended := [2]bool{}, false
		for trial := 0; trial < 6; trial++ {
			capacity := float64(n) * (0.2 + 0.4*rng.Float64())
			beta := 0.5 * rng.Float64()
			highs := make([]float64, n)
			for i := range highs {
				highs[i] = math.Max(0, 0.3+rng.Float64()-beta)
			}
			if trial == 4 && capacity > beta {
				for i := range highs {
					highs[i] = math.Min(highs[i], 0.5*(capacity-beta))
				}
				highs[n-1] = math.Nextafter(capacity-beta, math.Inf(1))
			}
			h := 0.3 + 0.7*rng.Float64()
			if trial == 5 {
				lo := make([]float64, n)
				for i := range lo {
					lo[i] = h * (0.2 + 0.7*rng.Float64())
					highs[i] = h - lo[i]
				}
				sort.Float64s(lo)
				live := (n - 1) / 2
				capacity = 0.5 * lo[live]
				for _, a := range lo[:live] {
					capacity += a
				}
			}
			wSums, _ := combin.SubsetSums(nil, highs)
			wProd, _ := combin.SubsetProducts(nil, highs)
			for c, sign := range []float64{1, -1} {
				tm := shiftRadix(nil, capacity, beta, n)
				if sign < 0 {
					tm = endRadix(nil, capacity, h, n)
				}
				mmax := len(tm) - 1
				got := append([]float64(nil), wProd...)
				work, err := bin1Ladder(got, wSums, make([]float64, len(wSums)), tm, sign, n)
				if err != nil {
					t.Fatal(err)
				}
				passes := int(work.Rebuilt >> uint(n))
				skipped[c] = skipped[c] || passes < mmax
				if sign > 0 && trial == 4 && passes != mmax {
					t.Fatalf("n=%d: a width just past t_1 ran %d of %d exponents", n, passes, mmax)
				}
				fits := func(s int) bool { return tm[bits.OnesCount64(uint64(s))] >= max(sign*wSums[s], 0) }
				want := append([]float64(nil), wProd...)
				for s := range want {
					if bits.OnesCount64(uint64(s)) > mmax {
						want[s] = 0
					}
				}
				if _, err := radixLadder(wSums, sign, tm, make([]float64, len(wSums)), n, 1, func(s uint64, v float64) {
					switch {
					case want[s] == 0:
					case fits(int(s)):
						want[s] = 1
					default:
						if sign < 0 && bits.OnesCount64(s)%2 == 1 {
							v = -v
						}
						want[s] = Clamp01(v / want[s])
					}
				}); err != nil {
					t.Fatal(err)
				}
				live := 0 // the last exponent with a positive radix
				for s := range want {
					if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
						t.Fatalf("n=%d sign %v β=%v h=%v δ=%v set %b: skipping table %v, full ladder %v", n, sign, beta, h, capacity, s, got[s], want[s])
					}
					if m := bits.OnesCount64(uint64(s)); m <= mmax && tm[m]-sign*wSums[s] > 0 {
						live = max(live, m)
					}
				}
				if sign < 0 && live < mmax {
					for _, v := range got {
						ended = ended || v == 0 && math.Signbit(v)
					}
				}
			}
		}
		if !skipped[0] || !skipped[1] {
			t.Errorf("n=%d: shared β, shared right end skipped a whole-box exponent: %v", n, skipped)
		}
		if !ended {
			t.Errorf("n=%d: no shared-right-end ladder ended early with a −0 cell", n)
		}
	}
}

// TestSharedBin1TableSkipsPointPlayers requires the bin-1 table built
// over the capable players alone and scattered into its 2^n cells to
// have, in every cell, the bits of the ladder over all 2^n sets with the
// point players' zero widths in place (sets holding one keep 0), on seeded
// shared-β and shared-right-end instances with n = 2…15 and 1 to n point
// players at random places (three of each), and to run its passes over
// the 2^(n−z) capable subsets only (some instance per n runs at least
// one). A scatter that writes each cell one submask late, and compacting
// the widths in reverse order, fail it.
func TestSharedBin1TableSkipsPointPlayers(t *testing.T) {
	rng := rand.New(rand.NewPCG(40, 2))
	for n := 2; n <= maxThresholdPi; n++ {
		ran := false
		for trial := 0; trial < 3*n; trial++ {
			z := 1 + trial%n
			capacity := float64(n-z+1) * (0.2 + 0.4*rng.Float64())
			beta := 0.5 * rng.Float64()
			widths := make([]float64, n)
			for i := range widths {
				widths[i] = 0.05 + 0.95*rng.Float64()
			}
			var point uint64
			for _, i := range rng.Perm(n)[:z] {
				widths[i], point = 0, point|1<<uint(i)
			}
			for _, sign := range []float64{1, -1} {
				full, capable := shiftRadix(nil, capacity, beta, n), shiftRadix(nil, capacity, beta, n-z)
				if sign < 0 {
					full, capable = endRadix(nil, capacity, 1, n), endRadix(nil, capacity, 1, n-z)
				}
				want, _ := combin.SubsetProducts(nil, widths)
				wSums, _ := combin.SubsetSums(nil, widths)
				if _, err := bin1Ladder(want, wSums, make([]float64, len(want)), full, sign, n); err != nil {
					t.Fatal(err)
				}
				got := make([]float64, len(want))
				for i := range got {
					got[i] = math.NaN()
				}
				work, err := sharedBin1Table(got, make([]float64, 2*len(got)), widths, point, capable, sign)
				if err != nil {
					t.Fatal(err)
				}
				if work.Subsets != 1<<uint(n-z) || work.Rebuilt%work.Subsets != 0 {
					t.Errorf("n=%d z=%d sign %v: work %+v, want passes over %d subsets", n, z, sign, work, 1<<uint(n-z))
				}
				ran = ran || work.Rebuilt > 0
				for s := range want {
					if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
						t.Fatalf("n=%d z=%d sign %v β=%v δ=%v set %b: capable players' table %v, full table %v", n, z, sign, beta, capacity, s, got[s], want[s])
					}
				}
			}
		}
		if !ran {
			t.Errorf("n=%d: no instance ran a ladder pass", n)
		}
	}
}

// TestPairSumDeterminism checks the chunked pair sum of an
// alternating-sign series (the bin-1 weights, every other table all ones)
// against one compensated serial sum.
func TestPairSumDeterminism(t *testing.T) {
	const n = 11
	term := func(mask uint64) float64 {
		v := math.Sin(float64(mask) + 0.5)
		if mask%3 == 1 {
			return -v
		}
		return v
	}
	ones := make([]float64, 1<<n)
	w1 := make([]float64, 1<<n)
	for mask := range w1 {
		ones[mask] = 1
		w1[mask] = term(uint64(mask))
	}
	_, chunks := combin.ChunkSpan(1 << n)
	got := pairSum(ones, w1, ones, ones, make([]float64, chunks))
	var acc combin.Accumulator
	for mask := uint64(0); mask < 1<<n; mask++ {
		acc.Add(term(mask))
	}
	if math.Abs(got-acc.Sum()) > 1e-10 {
		t.Fatalf("chunked sum %v far from compensated serial sum %v", got, acc.Sum())
	}
}

// TestTwoBranchKernelRefusals covers the kernel's input guards, among them
// a ground set past the subset-table limit, refused before any table is
// allocated. A refusal between two builds of the same loads leaves nothing
// to reuse: the second build redoes the first one's work.
func TestTwoBranchKernelRefusals(t *testing.T) {
	good := TwoBranch{Mass0: 0.5, Hi0: 1, Mass1: 0.5, Lo1: 0.25, Hi1: 1}
	rows := []struct {
		name     string
		players  []TwoBranch
		capacity float64
	}{
		{"oversize", make([]TwoBranch, combin.MaxSubsetTable+1), 1},
		{"zero capacity", []TwoBranch{good, good}, 0},
		{"NaN capacity", []TwoBranch{good, good}, math.NaN()},
		{"infinite capacity", []TwoBranch{good, good}, math.Inf(1)},
		{"negative width", []TwoBranch{good, {Hi0: -1, Hi1: 1, Mass1: 1}}, 1},
		{"shift past its interval", []TwoBranch{good, {Hi0: 1, Mass0: 1, Lo1: 2, Hi1: 1}}, 1},
		{"NaN shift", []TwoBranch{good, {Hi0: 1, Mass0: 1, Lo1: math.NaN(), Hi1: 1}}, 1},
		{"infinite interval", []TwoBranch{good, {Hi0: math.Inf(1), Mass0: 1}}, 1},
		{"point load with mass", []TwoBranch{good, {Mass0: 0.5, Mass1: 0.5, Lo1: 0.5, Hi1: 1}}, 1},
	}
	var k TwoBranchKernel
	if err := k.Build([]TwoBranch{good, good}, 1); err != nil {
		t.Fatal(err)
	}
	work := k.Stats()
	for _, r := range rows {
		if err := k.Build(r.players, r.capacity); err == nil {
			t.Errorf("%s: accepted", r.name)
		}
		if err := k.Build([]TwoBranch{good, good}, 1); err != nil {
			t.Fatal(err)
		}
		if k.Stats() != work {
			t.Errorf("%s: the build after the refusal did %+v, want a whole build's %+v", r.name, k.Stats(), work)
		}
	}
}

// freshKernel is a new kernel built for the players.
func freshKernel(t *testing.T, players []TwoBranch, capacity float64) *TwoBranchKernel {
	t.Helper()
	k := new(TwoBranchKernel)
	if err := k.Build(players, capacity); err != nil {
		t.Fatal(err)
	}
	return k
}

// sameAsFresh requires k's sum to have a fresh kernel's bits for the
// players, and k's work to be wantWork (a fresh kernel's when nil).
func sameAsFresh(t *testing.T, what string, k *TwoBranchKernel, players []TwoBranch, capacity float64, wantWork *SubsetVolumeStats) {
	t.Helper()
	fresh := freshKernel(t, players, capacity)
	if got, want := k.Sum(), fresh.Sum(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: kernel %v, fresh %v", what, got, want)
	}
	want := fresh.Stats()
	if wantWork != nil {
		want = *wantWork
	}
	if k.Stats() != want {
		t.Errorf("%s: work %+v, want %+v", what, k.Stats(), want)
	}
}

// reweighted returns the players with new masses: bin 0's halved, bin 1's
// cut to a third.
func reweighted(players []TwoBranch) []TwoBranch {
	out := append([]TwoBranch(nil), players...)
	for i := range out {
		out[i].Mass0, out[i].Mass1 = out[i].Mass0/2, out[i].Mass1/3
	}
	return out
}

// TestTwoBranchKernelRebuildBitIdentical rebuilds one kernel through
// oblivious players, a shared threshold, distinct thresholds, fewer players
// and then more players than it has held, and requires each build's Sum
// and work to equal a fresh kernel's bit for bit, so no table carries
// anything over from an earlier build. Each build is followed by one with
// the same loads and new masses, which must also equal a fresh kernel's
// sum while reporting no table work.
func TestTwoBranchKernelRebuildBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(36, 1))
	pis := func(n int) []float64 {
		pi := make([]float64, n)
		for i := range pi {
			pi[i] = 0.5 + 0.5*rng.Float64()
		}
		return pi
	}
	obliv := func(pi []float64) []TwoBranch {
		players := make([]TwoBranch, len(pi))
		for i, w := range pi {
			a := rng.Float64()
			players[i] = TwoBranch{Mass0: a, Hi0: w, Mass1: 1 - a, Hi1: w}
		}
		return players
	}
	shared := func(pi []float64) []TwoBranch {
		a := make([]float64, len(pi))
		for i := range a {
			a[i] = 0.45
		}
		return thresholdPlayers(a, pi)
	}
	distinct := func(pi []float64) []TwoBranch {
		a := make([]float64, len(pi))
		for i := range a {
			a[i] = rng.Float64()
		}
		return thresholdPlayers(a, pi)
	}
	steps := []struct {
		name     string
		players  []TwoBranch
		capacity float64
	}{
		{"oblivious n=9", obliv(pis(9)), 3},
		{"shared threshold n=9", shared(pis(9)), 3},
		{"distinct thresholds n=9", distinct(pis(9)), 2.5},
		{"oblivious n=5", obliv(pis(5)), 1.75},
		{"shared threshold n=4", shared(pis(4)), 1.25},
		{"distinct thresholds n=11", distinct(pis(11)), 3.5},
		{"oblivious n=12", obliv(pis(12)), 4},
	}
	var k TwoBranchKernel
	for _, s := range steps {
		if err := k.Build(s.players, s.capacity); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		sameAsFresh(t, s.name, &k, s.players, s.capacity, nil)
		players := reweighted(s.players)
		if err := k.Build(players, s.capacity); err != nil {
			t.Fatal(err)
		}
		sameAsFresh(t, s.name+", new masses", &k, players, s.capacity, &SubsetVolumeStats{})
	}
}

// TestTwoBranchKernelReuseKey changes one input of the reuse key at a
// time, the capacity, one player's Hi0, Lo1 or Hi1 by an ulp, and the
// player count, and requires each to rebuild with a fresh kernel's bits
// and work, for threshold players on π and on π ≡ 1 inputs and for
// oblivious players. A build that fails after it has started writing the
// tables (here the bin-0 ladder refusing a NaN width that Build would have
// refused up front) leaves nothing to reuse: the same loads as before it
// rebuild whole. Last, one kernel goes from π ≡ 1 thresholds to the same
// thresholds on π and back: each build has a fresh kernel's bits and work,
// and repeating the π ≡ 1 vector records no table work.
func TestTwoBranchKernelReuseKey(t *testing.T) {
	pi := []float64{0.5, 0.875, 0.75, 1, 0.625, 0.9375}
	a := []float64{0.25, 0.5, 0.375, 0.625, 0.125, 0.5}
	bumped := func(players []TwoBranch, f func(p *TwoBranch)) []TwoBranch {
		out := append([]TwoBranch(nil), players...)
		f(&out[2])
		return out
	}
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	ones := []float64{1, 1, 1, 1, 1, 1}
	for _, base := range [][]TwoBranch{
		thresholdPlayers(a, pi),
		thresholdPlayers([]float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}, pi),
		thresholdPlayers(a, ones),
		{{0.25, 0.5, 0.75, 0, 0.5}, {0.5, 1, 0.5, 0, 1}, {0.375, 0.75, 0.625, 0, 0.75}},
	} {
		const capacity = 2.0
		rows := []struct {
			name     string
			players  []TwoBranch
			capacity float64
		}{
			{"capacity", base, up(capacity)},
			{"Hi0", bumped(base, func(p *TwoBranch) { p.Hi0 = up(p.Hi0) }), capacity},
			{"Lo1", bumped(base, func(p *TwoBranch) { p.Lo1 = up(p.Lo1) }), capacity},
			{"Hi1", bumped(base, func(p *TwoBranch) { p.Hi1 = up(p.Hi1) }), capacity},
			{"player count", base[:len(base)-1], capacity},
		}
		for _, r := range rows {
			var k TwoBranchKernel
			if err := k.Build(base, capacity); err != nil {
				t.Fatal(err)
			}
			if err := k.Build(r.players, r.capacity); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			sameAsFresh(t, "changed "+r.name, &k, r.players, r.capacity, nil)
			if k.Stats() == (SubsetVolumeStats{}) {
				t.Errorf("changed %s: no table work", r.name)
			}
		}
		var k TwoBranchKernel
		if err := k.Build(base, capacity); err != nil {
			t.Fatal(err)
		}
		broken := bumped(base, func(p *TwoBranch) { p.Hi0 = math.NaN() })
		if err := k.buildTables(broken, capacity); err == nil {
			t.Fatal("a NaN width built")
		}
		if k.whole {
			t.Error("a failed build left its tables marked whole")
		}
		if err := k.Build(base, capacity); err != nil {
			t.Fatal(err)
		}
		sameAsFresh(t, "after a failed build", &k, base, capacity, nil)
	}
	var k TwoBranchKernel
	for i, players := range [][]TwoBranch{thresholdPlayers(a, ones), thresholdPlayers(a, pi), thresholdPlayers(a, ones)} {
		if err := k.Build(players, 2); err != nil {
			t.Fatal(err)
		}
		sameAsFresh(t, fmt.Sprintf("π ≡ 1 → π → π ≡ 1, build %d", i), &k, players, 2, nil)
	}
	if err := k.Build(thresholdPlayers(a, ones), 2); err != nil {
		t.Fatal(err)
	}
	sameAsFresh(t, "repeated π ≡ 1 vector", &k, thresholdPlayers(a, ones), 2, &SubsetVolumeStats{})
}

// TestTwoBranchKernelScaleHalfBitExact halves π, δ and every threshold of
// seeded games, n = 4–15, with α unchanged. Every width, radix, power,
// factorial quotient and box then scales by a power of two and every mass
// keeps its bits, so P must keep its bits on every table strategy: the
// shared-β bin-1 ladder with and without point players (π_i ≤ β), the
// shared-right-end ladder (distinct thresholds on π ≡ 1, whose right end
// halves to ½), the per-set walk of distinct thresholds, and the one
// table of oblivious players. These sizes lie beyond the rational oracle.
func TestTwoBranchKernelScaleHalfBitExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 21))
	uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	half := func(x []float64) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = v / 2
		}
		return out
	}
	oblivious := func(alpha, pi []float64) []TwoBranch {
		players := make([]TwoBranch, len(pi))
		for i, w := range pi {
			players[i] = TwoBranch{Mass0: alpha[i], Hi0: w, Mass1: 1 - alpha[i], Hi1: w}
		}
		return players
	}
	sum := func(players []TwoBranch, capacity float64) float64 {
		return freshKernel(t, players, capacity).Sum()
	}
	for n := 4; n <= maxThresholdPi; n++ {
		capacity := float64(n) / 3 * uniform(0.8, 1.2)
		beta := uniform(0.4, 0.7)
		shared, distinct, alpha := make([]float64, n), make([]float64, n), make([]float64, n)
		pi, piPoint, ones := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range pi {
			shared[i], distinct[i], alpha[i] = beta, uniform(0.3, 0.8), uniform(0.2, 0.8)
			pi[i], piPoint[i], ones[i] = uniform(beta+0.05, 1), uniform(beta+0.05, 1), 1
		}
		for i := 0; i < n; i += 3 {
			piPoint[i] = uniform(beta/2, beta) // a point player: π_i ≤ β
		}
		for _, c := range []struct {
			name  string
			a, pi []float64 // thresholds and ranges; a nil a is oblivious
		}{
			{"shared β", shared, pi},
			{"shared β, point players", shared, piPoint},
			{"distinct thresholds", distinct, pi},
			{"oblivious", nil, pi},
			{"π ≡ 1, shared β", shared, ones},
			{"π ≡ 1, distinct thresholds", distinct, ones},
		} {
			var got, want float64
			if c.a == nil {
				want = sum(oblivious(alpha, c.pi), capacity)
				got = sum(oblivious(alpha, half(c.pi)), capacity/2)
			} else {
				want = sum(thresholdPlayers(c.a, c.pi), capacity)
				got = sum(thresholdPlayers(half(c.a), half(c.pi)), capacity/2)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d %s: halved P = %v, P = %v", n, c.name, got, want)
			}
		}
	}
}
