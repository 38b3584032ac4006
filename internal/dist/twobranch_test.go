package dist

import (
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
		c1 := append([]float64(nil), wProd...)
		_, err := sharedBin1Table(c1, wSums, make([]float64, len(wSums)), capacity, beta, n-bits.OnesCount64(bad), n)
		if err != nil {
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
}

// TestSharedThresholdPathSelection checks through the kernel's work
// counters which bin-1 table each input builds: a shared threshold builds
// the bin-1 ladder (a second 2^n-cell table), a vector with one threshold
// nudged by an ulp, or with one threshold at 0 (a player with no bin-0
// width, so half the sets need no walk), keeps the per-set walk, and
// oblivious players (zero shifts, equal widths) reuse the bin-0 table, so
// each of the last three builds exactly one volume table. The threshold
// rows' counters are those the per-class threshold π evaluator recorded on
// the same instances before this kernel replaced it, so the kernel does no
// more work. The shared and walked values agree within 1e-12.
func TestSharedThresholdPathSelection(t *testing.T) {
	// Subsets, incremental and rebuilt steps: shared β, nudged β, zeroed.
	thresholdWork := map[int][3]SubsetVolumeStats{
		4:  {{32, 224, 16}, {16, 192, 16}, {16, 192, 19}},
		7:  {{256, 5376, 384}, {128, 4032, 456}, {128, 4032, 415}},
		10: {{2048, 81920, 4096}, {1024, 61440, 11346}, {1024, 61440, 9778}},
		13: {{16384, 1064960, 40960}, {8192, 798720, 257409}, {8192, 798720, 199478}},
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
		oblivious := make([]TwoBranch, n)
		for i, w := range pis {
			oblivious[i] = TwoBranch{Mass0: shared[i], Hi0: w, Mass1: 1 - shared[i], Hi1: w}
		}
		size := uint64(1) << uint(n)
		rows := []struct {
			name    string
			players []TwoBranch
			work    SubsetVolumeStats
		}{
			{"shared β", thresholdPlayers(shared, pis), thresholdWork[n][0]},
			{"nudged β", thresholdPlayers(nudged, pis), thresholdWork[n][1]},
			{"zeroed", thresholdPlayers(zeroed, pis), thresholdWork[n][2]},
			{"oblivious", oblivious, SubsetVolumeStats{Subsets: size, Incremental: uint64(n)*size + uint64(n*n)*size/2}},
		}
		p := make([]float64, len(rows))
		for i, r := range rows {
			k, err := NewTwoBranchKernel(r.players, capacity)
			if err != nil {
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
	}
}

// TestSharedBin1TableSkipBitIdentical checks that starting the bin-1
// ladder past the whole-box exponents changes no bit: for n up to the
// threshold π cap the table equals one whose ladder runs every exponent
// from 1 with the same emit rule, and at least one instance per n skips an
// exponent. The last instance per n puts one width a step above t_1, so
// exactly one single set misses its whole box and the first exponent must
// run.
func TestSharedBin1TableSkipBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1))
	for n := 2; n <= maxThresholdPi; n++ {
		skipped := false
		for trial := 0; trial < 5; trial++ {
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
			wSums, _ := combin.SubsetSums(nil, highs)
			wProd, _ := combin.SubsetProducts(nil, highs)
			mmax := 0
			for m := 1; m <= n && float64(m)*beta < capacity; m++ {
				mmax = m
			}
			got := append([]float64(nil), wProd...)
			passes, err := sharedBin1Table(got, wSums, make([]float64, len(wSums)), capacity, beta, n, n)
			if err != nil {
				t.Fatal(err)
			}
			skipped = skipped || passes < mmax
			if trial == 4 && passes != mmax {
				t.Fatalf("n=%d: a width just past t_1 ran %d of %d exponents", n, passes, mmax)
			}
			tm := make([]float64, mmax+1)
			aSum := 0.0
			for m := 1; m <= mmax; m++ {
				aSum += beta
				tm[m] = capacity - aSum
			}
			want := append([]float64(nil), wProd...)
			for s := range want {
				if bits.OnesCount64(uint64(s)) > mmax {
					want[s] = 0
				}
			}
			if err := RadixLadder(wSums, tm, make([]float64, len(wSums)), n, 1, func(s uint64, v float64) {
				switch {
				case want[s] == 0:
				case tm[bits.OnesCount64(s)] >= wSums[s]:
					want[s] = 1
				default:
					want[s] = Clamp01(v / want[s])
				}
			}); err != nil {
				t.Fatal(err)
			}
			for s := range want {
				if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
					t.Fatalf("n=%d β=%v δ=%v set %b: skipping table %v, full ladder %v", n, beta, capacity, s, got[s], want[s])
				}
			}
		}
		if !skipped {
			t.Errorf("n=%d: no instance skipped a whole-box exponent", n)
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
	got := PairSum(ones, w1, ones, ones, make([]float64, chunks))
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
// allocated.
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
	for _, r := range rows {
		if _, err := NewTwoBranchKernel(r.players, r.capacity); err == nil {
			t.Errorf("%s: accepted", r.name)
		}
	}
	k, err := NewTwoBranchKernel([]TwoBranch{good, good}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetMasses([]float64{1}, []float64{0, 1}); err == nil {
		t.Error("SetMasses accepted one mass for two players")
	}
}

// TestTwoBranchKernelRebuildBitIdentical rebuilds one kernel through
// oblivious players, a shared threshold, distinct thresholds, fewer players
// and then more players than it has held, and requires each build's Sum
// and work to equal a fresh kernel's bit for bit, before and after
// SetMasses, so no table carries anything over from an earlier build.
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
		fresh, err := NewTwoBranchKernel(s.players, s.capacity)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got, want := k.Sum(), fresh.Sum(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: rebuilt %v, fresh %v", s.name, got, want)
		}
		if k.Stats() != fresh.Stats() {
			t.Errorf("%s: rebuilt work %+v, fresh %+v", s.name, k.Stats(), fresh.Stats())
		}
		m0, m1 := make([]float64, len(s.players)), make([]float64, len(s.players))
		for i, p := range s.players {
			m0[i], m1[i] = p.Mass0/2, p.Mass1/3
		}
		if err := k.SetMasses(m0, m1); err != nil {
			t.Fatal(err)
		}
		if err := fresh.SetMasses(m0, m1); err != nil {
			t.Fatal(err)
		}
		if got, want := k.Sum(), fresh.Sum(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s, new masses: rebuilt %v, fresh %v", s.name, got, want)
		}
	}
}
