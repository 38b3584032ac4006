package nonoblivious

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sort"
	"testing"

	"repro/internal/combin"
	"repro/internal/dist"
	"repro/internal/obs"
)

// TestWinningProbabilityPiMatchesHomogeneous pins the heterogeneous
// evaluator to Theorem 5.1 when every range is 1 (spelled out or nil).
func TestWinningProbabilityPiMatchesHomogeneous(t *testing.T) {
	thresholdSets := [][]float64{
		{0.5, 0.5, 0.5},
		{0.3, 0.7, 0.5},
		{1, 0, 0.25, 0.9},
	}
	for _, ths := range thresholdSets {
		for _, capacity := range []float64{0.5, 1, 1.5} {
			want, err := WinningProbability(ths, capacity)
			if err != nil {
				t.Fatalf("WinningProbability(%v, %v): %v", ths, capacity, err)
			}
			ones := make([]float64, len(ths))
			for i := range ones {
				ones[i] = 1
			}
			for _, pi := range [][]float64{nil, ones} {
				got, err := WinningProbabilityPi(ths, pi, capacity)
				if err != nil {
					t.Fatalf("WinningProbabilityPi(%v, %v, %v): %v", ths, pi, capacity, err)
				}
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("WinningProbabilityPi(%v, %v, %v) = %v, want %v", ths, pi, capacity, got, want)
				}
			}
		}
	}
}

// TestWinningProbabilityPiDegenerate pins hand-checkable heterogeneous
// cases.
func TestWinningProbabilityPiDegenerate(t *testing.T) {
	// Thresholds at the top of each range: both players always choose
	// bin 0, so the game wins iff x_0 + x_1 ≤ δ; for π = (1/2, 1), δ = 1
	// that is 3/4 (triangle cut off the (1/2)×1 rectangle).
	got, err := WinningProbabilityPi([]float64{0.5, 1}, []float64{0.5, 1}, 1)
	if err != nil {
		t.Fatalf("WinningProbabilityPi: %v", err)
	}
	if want := 0.75; math.Abs(got-want) > 1e-12 {
		t.Fatalf("all-low = %v, want %v", got, want)
	}

	// Zero thresholds: both players always choose bin 1 (x_i > 0 a.s.),
	// same fit probability on the other bin.
	got, err = WinningProbabilityPi([]float64{0, 0}, []float64{0.5, 1}, 1)
	if err != nil {
		t.Fatalf("WinningProbabilityPi: %v", err)
	}
	if want := 0.75; math.Abs(got-want) > 1e-12 {
		t.Fatalf("all-high = %v, want %v", got, want)
	}
}

// TestWinningProbabilityPiMonteCarlo cross-checks the conditioned
// subset-sum evaluator against direct simulation of the heterogeneous
// threshold game, on a mix of unit and non-unit ranges so both the
// Lemma 2.7 branch and the shift-identity branch are exercised.
func TestWinningProbabilityPiMonteCarlo(t *testing.T) {
	cases := []struct {
		ths, pi  []float64
		capacity float64
	}{
		{[]float64{0.4, 0.6, 0.5}, []float64{0.5, 1, 0.75}, 0.8},
		{[]float64{0.5, 0.5, 0.5}, []float64{0.5, 1, 1}, 1},
		{[]float64{0.3, 0.9}, []float64{2, 0.25}, 1.2},
	}
	for _, tc := range cases {
		exact, err := WinningProbabilityPi(tc.ths, tc.pi, tc.capacity)
		if err != nil {
			t.Fatalf("WinningProbabilityPi(%v, %v, %v): %v", tc.ths, tc.pi, tc.capacity, err)
		}
		rng := rand.New(rand.NewPCG(3, 13))
		const trials = 400_000
		wins := 0
		for trial := 0; trial < trials; trial++ {
			var load0, load1 float64
			for i := range tc.ths {
				x := rng.Float64() * tc.pi[i]
				if x <= tc.ths[i] {
					load0 += x
				} else {
					load1 += x
				}
			}
			if load0 <= tc.capacity && load1 <= tc.capacity {
				wins++
			}
		}
		mc := float64(wins) / trials
		se := math.Sqrt(math.Max(exact*(1-exact), 1e-12) / trials)
		if math.Abs(mc-exact) > 4*se+1e-9 {
			t.Fatalf("case %v/%v/%v: exact %v vs MC %v differ by more than 4σ (σ=%v)",
				tc.ths, tc.pi, tc.capacity, exact, mc, se)
		}
	}
}

// TestWinningProbabilityPiRejects covers the validation paths.
func TestWinningProbabilityPiRejects(t *testing.T) {
	cases := []struct {
		name     string
		ths      []float64
		pi       []float64
		capacity float64
	}{
		{"short pi", []float64{0.5, 0.5}, []float64{0.5}, 1},
		{"long all-ones pi", []float64{0.5, 0.5}, []float64{1, 1, 1}, 1},
		{"short all-ones pi", []float64{0.5, 0.5, 0.5}, []float64{1, 1}, 1},
		{"zero range", []float64{0.5, 0.5}, []float64{0, 1}, 1},
		{"negative range", []float64{0.5, 0.5}, []float64{-1, 2}, 1},
		{"NaN range", []float64{0.5, 0.5}, []float64{math.NaN(), 2}, 1},
		{"bad threshold", []float64{1.5, 0.5}, []float64{0.5, 1}, 1},
		{"bad capacity", []float64{0.5, 0.5}, []float64{0.5, 2}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := WinningProbabilityPi(tc.ths, tc.pi, tc.capacity); err == nil {
				t.Fatalf("WinningProbabilityPi(%v, %v, %v) succeeded, want error", tc.ths, tc.pi, tc.capacity)
			}
		})
	}
}

// TestCertifyThresholds checks the a-posteriori certificate: the oracle
// value at the float point agrees with the float path within the returned
// bound, the bound is ExactErrorBound at the smallest range, and a π of
// the wrong length is refused.
func TestCertifyThresholds(t *testing.T) {
	ths := []float64{0.25, 0.5, 0.75}
	for _, pi := range [][]float64{nil, {0.5, 1.25, 1}} {
		exact, bound, err := CertifyThresholds(ths, pi, 1)
		if err != nil {
			t.Fatalf("pi=%v: %v", pi, err)
		}
		piMin := 1.0
		for _, w := range pi {
			piMin = math.Min(piMin, w)
		}
		if want := ExactErrorBound(3, 1, piMin); bound != want {
			t.Errorf("pi=%v: bound %g, want ExactErrorBound %g", pi, bound, want)
		}
		p, err := WinningProbabilityPi(ths, pi, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-exact) > bound {
			t.Errorf("pi=%v: float %v vs oracle %v exceeds bound %g", pi, p, exact, bound)
		}
	}
	if _, _, err := CertifyThresholds(ths, []float64{1, 1}, 1); err == nil {
		t.Error("CertifyThresholds accepted a π of the wrong length")
	}
}

// TestSharedThresholdMatchesRatOracle pins the shared-threshold bin-1
// table against the rational oracle on random dyadic instances: β = 0
// (nobody can choose bin 0), β = 1 (everyone is bin-0-only or shares β),
// and random β with ranges π ∈ [1/4, 2] so some players have β ≥ π_i and
// small sets' whole residual boxes fit under the threshold.
func TestSharedThresholdMatchesRatOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 2))
	for n := 2; n <= MaxNExact; n++ {
		capF, capR := dyadicCapacity(n)
		for trial := 0; trial < 3; trial++ {
			var betaF float64
			var betaR *big.Rat
			switch trial {
			case 0:
				betaF, betaR = 0, new(big.Rat)
			case 1:
				betaF, betaR = 1, big.NewRat(1, 1)
			default:
				betaF, betaR = dyadic64(rng, 8, 56)
			}
			ths := make([]float64, n)
			thsR := make([]*big.Rat, n)
			pis := make([]float64, n)
			pisR := make([]*big.Rat, n)
			piMin := math.Inf(1)
			for i := range ths {
				ths[i], thsR[i] = betaF, betaR
				pis[i], pisR[i] = dyadic64(rng, 16, 128)
				piMin = math.Min(piMin, pis[i])
			}
			got, err := WinningProbabilityPi(ths, pis, capF)
			if err != nil {
				t.Fatalf("n=%d β=%v float: %v", n, betaF, err)
			}
			want, err := WinningProbabilityPiRat(thsR, pisR, capR)
			if err != nil {
				t.Fatalf("n=%d β=%v rat: %v", n, betaF, err)
			}
			wf, _ := want.Float64()
			if d, bound := math.Abs(got-wf), ExactErrorBound(n, capF, piMin); d > bound {
				t.Errorf("n=%d β=%v π=%v: float %v vs oracle %v, |diff| %g exceeds certified bound %g",
					n, betaF, pis, got, wf, d, bound)
			}
		}
	}
}

// TestSharedBin1TableMatchesWalk compares every entry of the
// shared-threshold bin-1 table with the per-set walk (tailVolumeDFS,
// behind the same whole-box shortcut) for n ≤ MaxNHetero, including the
// sets with a player that can never choose bin 1, whose volume is 0.
func TestSharedBin1TableMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 3))
	for n := 2; n <= MaxNHetero; n++ {
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
		vol1 := make([]float64, len(wSums))
		_, err := sharedBin1Table(vol1, wSums, wProd, make([]float64, len(wSums)), capacity, beta, mmax, n)
		if err != nil {
			t.Fatal(err)
		}
		walked := 0
		for s := uint64(1); s < uint64(len(vol1)); s++ {
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
			if math.Abs(vol1[s]-want) > 1e-12 {
				t.Fatalf("n=%d β=%v δ=%v set %b: table %v, walk %v", n, beta, capacity, s, vol1[s], want)
			}
		}
		if walked == 0 {
			t.Errorf("n=%d β=%v δ=%v: no set needed inclusion-exclusion", n, beta, capacity)
		}
	}
}

// TestSharedThresholdPathSelection checks through the exact.* counters
// that a shared threshold builds the bin-1 table (a second 2^n-cell table
// and its rebuilt base cells) while a vector with one threshold nudged by
// an ulp keeps the per-set walk, and that the two agree within 1e-12.
func TestSharedThresholdPathSelection(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 4))
	for n := 4; n <= MaxNHetero; n += 3 {
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
		eval := func(ths []float64) (float64, map[string]int64) {
			reg := obs.NewRegistry()
			p, err := WinningProbabilityPiOpts(ths, pis, capacity, 1, obs.New(reg, nil))
			if err != nil {
				t.Fatal(err)
			}
			return p, reg.Snapshot().Counters
		}
		pShared, cShared := eval(shared)
		pWalk, cWalk := eval(nudged)
		size := int64(1) << uint(n)
		if cShared["exact.subsets"] != 2*size {
			t.Errorf("n=%d shared β: exact.subsets = %d, want %d (bin-0 and bin-1 tables)", n, cShared["exact.subsets"], 2*size)
		}
		if cWalk["exact.subsets"] != size {
			t.Errorf("n=%d nudged β: exact.subsets = %d, want %d (bin-0 table only)", n, cWalk["exact.subsets"], size)
		}
		if math.Abs(pShared-pWalk) > 1e-12 {
			t.Errorf("n=%d: shared-β table %v vs walk %v", n, pShared, pWalk)
		}
	}
}

// TestSharedBin1TableSkipBitIdentical checks that starting the bin-1
// ladder past the whole-box exponents changes no bit: for n ≤ MaxNHetero
// the table equals one whose ladder runs every exponent from 1 with the
// same emit rule, and at least one instance per n skips an exponent. The
// last instance per n puts one width a step above t_1, so exactly one
// single set misses its whole box and the first exponent must run.
func TestSharedBin1TableSkipBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1))
	for n := 2; n <= MaxNHetero; n++ {
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
			got := make([]float64, len(wSums))
			passes, err := sharedBin1Table(got, wSums, wProd, make([]float64, len(wSums)), capacity, beta, mmax, n)
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
			want := make([]float64, len(wSums))
			if err := dist.RadixLadder(wSums, tm, make([]float64, len(wSums)), n, 1, func(s uint64, v float64) {
				if tm[bits.OnesCount64(s)] >= wSums[s] {
					v = wProd[s]
				} else if v < 0 {
					v = 0
				}
				want[s] = v
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

// TestWinningProbabilityPiBytesPerCall bounds the shared-threshold π
// path's heap use at n = 11: it reuses the bin-0 ladder's scratch for the
// residual widths' tables and the bin-1 base, so a call allocates at
// most six 2^n-entry float64 tables (it needs five) plus small slices.
func TestWinningProbabilityPiBytesPerCall(t *testing.T) {
	const n, calls = 11, 20
	ths := make([]float64, n)
	pis := make([]float64, n)
	for i := range ths {
		ths[i] = 0.4
		pis[i] = 0.6 + 0.05*float64(i)
	}
	run := func() {
		if _, err := WinningProbabilityPiOpts(ths, pis, 3.5, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	const limit = 6*8<<n + 4096
	if perCall > limit {
		t.Errorf("n=%d: %d bytes per call, want at most %d (six 2^n-entry tables plus small slices)", n, perCall, limit)
	}
}
