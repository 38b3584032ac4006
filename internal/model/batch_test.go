package model

import (
	"math"
	"math/rand/v2"
	"testing"
)

// plainRule hides a rule's BatchRule implementation so tests can force
// the per-trial path.
type plainRule struct{ r LocalRule }

func (p plainRule) Decide(x float64, rng *rand.Rand) (Bin, error) { return p.r.Decide(x, rng) }

func testPCG(seed uint64) *rand.PCG {
	return rand.NewPCG(seed, seed^0x94d049bb133111eb)
}

func testRNG(seed uint64) *rand.Rand { return rand.New(testPCG(seed)) }

// TestDecideBatchMatchesDecide pins the core BatchRule contract: for
// every rule family, DecideBatch must agree element-for-element with
// Decide given the same inputs and coins.
func TestDecideBatchMatchesDecide(t *testing.T) {
	thr, err := NewThresholdRule(0.622)
	if err != nil {
		t.Fatal(err)
	}
	obl, err := NewObliviousRule(0.37)
	if err != nil {
		t.Fatal(err)
	}
	oblZero, err := NewObliviousRule(0)
	if err != nil {
		t.Fatal(err)
	}
	oblOne, err := NewObliviousRule(1)
	if err != nil {
		t.Fatal(err)
	}
	ivl, err := NewIntervalUnionRule("band", []float64{0.2, 0.6}, []float64{0.45, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewIntervalUnionRule("one", []float64{0.25}, []float64{0.75})
	if err != nil {
		t.Fatal(err)
	}

	rng := testRNG(1)
	const trials = 4096
	inputs := make([]float64, trials)
	coins := make([]float64, trials)
	for k := range inputs {
		inputs[k] = rng.Float64()
		coins[k] = rng.Float64()
	}
	// Boundary values must agree too.
	inputs[0], inputs[1], inputs[2] = 0, 1, 0.622
	inputs[3], inputs[4] = 0.45, 0.6

	for _, tc := range []struct {
		name string
		rule BatchRule
	}{
		{"threshold", thr},
		{"oblivious", obl},
		{"oblivious-p0", oblZero},
		{"oblivious-p1", oblOne},
		{"interval-union", ivl},
		{"interval-single", single},
	} {
		out := make([]Bin, trials)
		var cs []float64
		switch tc.rule.CoinDraws() {
		case 0:
		case 1:
			cs = coins
		default:
			t.Fatalf("%s: unexpected CoinDraws %d", tc.name, tc.rule.CoinDraws())
		}
		tc.rule.DecideBatch(inputs, cs, out)
		for k := range inputs {
			// Replay the per-trial call with the matching coin as the
			// only rng draw.
			want, err := tc.rule.Decide(inputs[k], coinSource(coins[k]))
			if err != nil {
				t.Fatalf("%s: Decide: %v", tc.name, err)
			}
			if out[k] != want {
				t.Fatalf("%s: trial %d (x=%v, coin=%v): batch %v, per-trial %v",
					tc.name, k, inputs[k], coins[k], out[k], want)
			}
		}
	}
}

// coinSource returns an rng whose next Float64 is exactly c, for any c
// produced by a real Float64 call (an integer multiple of 2^-53):
// rand/v2's Float64 reads the low 53 bits of Uint64.
func coinSource(c float64) *rand.Rand {
	return rand.New(fixedSource{u: uint64(c * (1 << 53))})
}

type fixedSource struct{ u uint64 }

func (f fixedSource) Uint64() uint64 { return f.u }

func TestIntervalUnionRuleValidation(t *testing.T) {
	if _, err := NewIntervalUnionRule("bad", []float64{0.5}, []float64{0.4}); err == nil {
		t.Error("inverted interval: expected error")
	}
	if _, err := NewIntervalUnionRule("bad", []float64{0.1, 0.2}, []float64{0.3, 0.4}); err == nil {
		t.Error("overlapping intervals: expected error")
	}
	if _, err := NewIntervalUnionRule("bad", []float64{0.1}, []float64{0.2, 0.3}); err == nil {
		t.Error("length mismatch: expected error")
	}
	if _, err := NewIntervalUnionRule("bad", []float64{-0.1}, []float64{0.2}); err == nil {
		t.Error("negative lo: expected error")
	}
	empty, err := NewIntervalUnionRule("empty", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := empty.Decide(0.5, nil); err != nil || b != Bin1 {
		t.Errorf("empty union Decide = %v, %v; want Bin1", b, err)
	}
}

// TestBatchKernelMatchesPerTrialPlay pins the RNG draw-order invariant at
// the model level: a BatchKernel.Play batch must reproduce, bit for bit,
// the outcomes of the same number of SampleInputs + Play rounds on an
// identically seeded stream — including randomized (coin-drawing) rules.
func TestBatchKernelMatchesPerTrialPlay(t *testing.T) {
	thr, _ := NewThresholdRule(0.622)
	obl, _ := NewObliviousRule(0.37)
	ivl, err := NewIntervalUnionRule("band", []float64{0.2, 0.6}, []float64{0.45, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem([]LocalRule{thr, obl, ivl, thr}, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	k, ok := NewBatchKernel(sys)
	if !ok {
		t.Fatal("expected a batch kernel for batchable rules")
	}
	if k.N() != 4 {
		t.Fatalf("kernel players = %d, want 4", k.N())
	}

	const b = 777 // odd size exercises the partial-batch path
	sc := GetBatchScratch()
	defer sc.Release()
	batchRNG := testPCG(99)
	wins := k.Play(sc, batchRNG, b)

	perTrialRNG := testRNG(99)
	perTrialWins := 0
	for i := 0; i < b; i++ {
		inputs, err := sys.SampleInputs(perTrialRNG)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sys.Play(inputs, perTrialRNG)
		if err != nil {
			t.Fatal(err)
		}
		if out.Win != sc.Wins()[i] {
			t.Fatalf("trial %d: batch win %v, per-trial win %v", i, sc.Wins()[i], out.Win)
		}
		if out.Win {
			perTrialWins++
		}
	}
	if wins != perTrialWins {
		t.Fatalf("batch wins %d, per-trial wins %d", wins, perTrialWins)
	}
	// The two paths must leave their streams in the same state.
	if a, bb := batchRNG.Uint64(), perTrialRNG.Uint64(); a != bb {
		t.Fatalf("streams diverged after play: %x vs %x", a, bb)
	}
}

// TestBatchKernelMatchesPerTrialPlayPi repeats the batch/per-trial
// equivalence on a heterogeneous system (x_i ~ U[0, π_i]): the widths-
// aware sampling branch must keep the per-trial RNG draw order, so both
// paths see identical streams bit for bit.
func TestBatchKernelMatchesPerTrialPlayPi(t *testing.T) {
	thr, _ := NewThresholdRule(0.4)
	obl, _ := NewObliviousRule(0.37)
	sys, err := NewSystemPi([]LocalRule{thr, obl, thr}, 1, []float64{0.5, 1, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Heterogeneous() {
		t.Fatal("system should report heterogeneous widths")
	}
	k, ok := NewBatchKernel(sys)
	if !ok {
		t.Fatal("expected a batch kernel for batchable rules")
	}

	const b = 777
	sc := GetBatchScratch()
	defer sc.Release()
	batchRNG := testPCG(41)
	wins := k.Play(sc, batchRNG, b)

	perTrialRNG := testRNG(41)
	perTrialWins := 0
	for i := 0; i < b; i++ {
		inputs, err := sys.SampleInputs(perTrialRNG)
		if err != nil {
			t.Fatal(err)
		}
		for j, x := range inputs {
			if w := sys.InputWidth(j); x < 0 || x > w {
				t.Fatalf("trial %d: input %d = %v outside [0, %v]", i, j, x, w)
			}
		}
		out, err := sys.Play(inputs, perTrialRNG)
		if err != nil {
			t.Fatal(err)
		}
		if out.Win != sc.Wins()[i] {
			t.Fatalf("trial %d: batch win %v, per-trial win %v", i, sc.Wins()[i], out.Win)
		}
		if out.Win {
			perTrialWins++
		}
	}
	if wins != perTrialWins {
		t.Fatalf("batch wins %d, per-trial wins %d", wins, perTrialWins)
	}
	if a, bb := batchRNG.Uint64(), perTrialRNG.Uint64(); a != bb {
		t.Fatalf("streams diverged after play: %x vs %x", a, bb)
	}
}

// TestNewBatchKernelFallsBack verifies that systems containing a rule
// without a batch implementation do not get a kernel.
func TestNewBatchKernelFallsBack(t *testing.T) {
	thr, _ := NewThresholdRule(0.5)
	sys, err := NewSystem([]LocalRule{thr, plainRule{thr}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := NewBatchKernel(sys); ok {
		t.Error("expected no kernel for a non-batch rule")
	}
	if _, ok := NewBatchKernel(nil); ok {
		t.Error("expected no kernel for a nil system")
	}
}

// TestBatchKernelPlayAllocationFree pins the zero-allocation contract of
// the steady-state kernel: once the scratch buffers are warm, Play must
// not allocate at all.
func TestBatchKernelPlayAllocationFree(t *testing.T) {
	thr, _ := NewThresholdRule(0.622)
	obl, _ := NewObliviousRule(0.37)
	for _, tc := range []struct {
		name string
		rule LocalRule
	}{
		{"threshold", thr},
		{"oblivious", obl},
	} {
		sys, err := UniformSystem(3, tc.rule, 1)
		if err != nil {
			t.Fatal(err)
		}
		k, ok := NewBatchKernel(sys)
		if !ok {
			t.Fatalf("%s: expected batch kernel", tc.name)
		}
		sc := GetBatchScratch()
		rng := testPCG(5)
		k.Play(sc, rng, 256) // warm the buffers
		allocs := testing.AllocsPerRun(10, func() {
			k.Play(sc, rng, 256)
		})
		sc.Release()
		if allocs != 0 {
			t.Errorf("%s: steady-state Play allocates %v times per batch, want 0", tc.name, allocs)
		}
	}
}

// TestPlayIntoReusesBuffers pins the scratch-buffer contract of the
// per-trial path: SampleInputsInto + PlayInto with caller-owned buffers
// must not allocate in steady state and must match Play exactly.
func TestPlayIntoReusesBuffers(t *testing.T) {
	thr, _ := NewThresholdRule(0.622)
	sys, err := UniformSystem(3, thr, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := testRNG(42), testRNG(42)
	inputs := make([]float64, sys.N())
	var out Outcome
	for i := 0; i < 100; i++ {
		if err := sys.SampleInputsInto(inputs, a); err != nil {
			t.Fatal(err)
		}
		if err := sys.PlayInto(&out, inputs, a); err != nil {
			t.Fatal(err)
		}
		fresh, err := sys.SampleInputs(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.Play(fresh, b)
		if err != nil {
			t.Fatal(err)
		}
		if out.Win != want.Win || out.Load0 != want.Load0 || out.Load1 != want.Load1 {
			t.Fatalf("trial %d: PlayInto %+v, Play %+v", i, out, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := sys.SampleInputsInto(inputs, a); err != nil {
			t.Fatal(err)
		}
		if err := sys.PlayInto(&out, inputs, a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state SampleInputsInto+PlayInto allocates %v times per trial, want 0", allocs)
	}
	if err := sys.PlayInto(nil, inputs, a); err == nil {
		t.Error("nil outcome: expected error")
	}
	if err := sys.SampleInputsInto(inputs[:1], a); err == nil {
		t.Error("short buffer: expected error")
	}
	if err := sys.SampleInputsInto(inputs, nil); err == nil {
		t.Error("nil rng: expected error")
	}
}

// playSrcSystems builds one system per kernel path: the pure-threshold
// register loop, the banded register loop, the lane path with coins, and
// the heterogeneous variants.
func playSrcSystems(t *testing.T) map[string]*System {
	t.Helper()
	thr, _ := NewThresholdRule(0.622)
	obl, _ := NewObliviousRule(0.37)
	band, err := NewIntervalUnionRule("band", []float64{0.2}, []float64{0.45})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewIntervalUnionRule("multi", []float64{0.1, 0.6}, []float64{0.3, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	always, _ := NewObliviousRule(0) // degenerate: every trial to bin 1
	sys := map[string]*System{}
	var e error
	add := func(name string, s *System, err error) {
		if err != nil {
			e = err
			return
		}
		sys[name] = s
	}
	s, err := NewSystem([]LocalRule{thr, thr, thr}, 1)
	add("threshold", s, err)
	s, err = NewSystem([]LocalRule{thr, band, always}, 1.2)
	add("banded", s, err)
	s, err = NewSystem([]LocalRule{thr, obl, band, multi}, 1.2)
	add("coins+generic", s, err)
	s, err = NewSystemPi([]LocalRule{thr, thr, thr}, 1, []float64{0.5, 1, 0.75})
	add("threshold-pi", s, err)
	s, err = NewSystemPi([]LocalRule{thr, obl, band}, 1, []float64{0.5, 1, 0.75})
	add("mixed-pi", s, err)
	if e != nil {
		t.Fatal(e)
	}
	return sys
}

// TestPlaySrcMatchesPlay pins the bit-identity of every kernel path
// (fused threshold, fused band, lane path with coins, and their
// heterogeneous variants) against the per-trial SampleInputsInto +
// PlayInto reference over the same PCG stream: identical win flags,
// counts, and final source state.
func TestPlaySrcMatchesPlay(t *testing.T) {
	const b = 777
	for name, sys := range playSrcSystems(t) {
		k, ok := NewBatchKernel(sys)
		if !ok {
			t.Fatalf("%s: expected batch kernel", name)
		}
		sc := GetBatchScratch()
		pcg := testPCG(7)
		wins := k.Play(sc, pcg, b)

		ref := testRNG(7)
		inputs := make([]float64, sys.N())
		var out Outcome
		refWins := 0
		for i := 0; i < b; i++ {
			if err := sys.SampleInputsInto(inputs, ref); err != nil {
				t.Fatal(err)
			}
			if err := sys.PlayInto(&out, inputs, ref); err != nil {
				t.Fatal(err)
			}
			if sc.Wins()[i] != out.Win {
				t.Fatalf("%s: trial %d flag %v, want %v", name, i, sc.Wins()[i], out.Win)
			}
			if out.Win {
				refWins++
			}
		}
		sc.Release()
		if wins != refWins {
			t.Errorf("%s: kernel wins %d, per-trial wins %d", name, wins, refWins)
		}
		if a, bb := pcg.Uint64(), ref.Uint64(); a != bb {
			t.Errorf("%s: stream diverged after play: %x vs %x", name, a, bb)
		}
	}
}

// TestBatchScratchMixedSizes pins the satellite fix: once a scratch has
// seen the widest instance and the largest batch of a sweep, playing any
// smaller (players, batch) mix re-slices the same slab — no per-width
// re-allocation.
func TestBatchScratchMixedSizes(t *testing.T) {
	thr, _ := NewThresholdRule(0.5)
	obl, _ := NewObliviousRule(0.37)
	kernels := []*BatchKernel{}
	for _, n := range []int{3, 8, 20} {
		sys, err := UniformSystem(n, obl, float64(n)/3)
		if err != nil {
			t.Fatal(err)
		}
		k, ok := NewBatchKernel(sys)
		if !ok {
			t.Fatal("expected batch kernel")
		}
		kernels = append(kernels, k)
		sysT, err := UniformSystem(n, thr, float64(n)/3)
		if err != nil {
			t.Fatal(err)
		}
		kT, ok := NewBatchKernel(sysT)
		if !ok {
			t.Fatal("expected batch kernel")
		}
		kernels = append(kernels, kT)
	}
	sc := GetBatchScratch()
	defer sc.Release()
	rng := testPCG(3)
	// Warm with the widest lane demand and the largest batch once.
	kernels[len(kernels)-2].Play(sc, rng, 777)
	allocs := testing.AllocsPerRun(5, func() {
		for _, k := range kernels {
			for _, b := range []int{100, 256, 777} {
				k.Play(sc, rng, b)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("mixed-size sweep allocates %v times per pass, want 0", allocs)
	}
}

// fillSampler is a deterministic LaneSampler stub: coordinate value
// depends only on (dim, index), so tests can predict PlayQMC's inputs.
type fillSampler struct{}

func (fillSampler) Fill(dst []float64, dim int, start uint64, count int) {
	for i := 0; i < count; i++ {
		u := (start + uint64(i)) * 2654435761 % 997
		v := (uint64(dim+1) * 40503 % 499)
		dst[i] = float64((u*499+v)%(997*499)) / (997 * 499)
	}
}

// TestPlayQMCMatchesPerTrial checks the QMC entry against a hand-rolled
// per-trial evaluation on the same deterministic point set, including a
// coin player and heterogeneous widths, across chunk boundaries.
func TestPlayQMCMatchesPerTrial(t *testing.T) {
	thr, _ := NewThresholdRule(0.4)
	obl, _ := NewObliviousRule(0.37)
	band, err := NewIntervalUnionRule("band", []float64{0.2}, []float64{0.45})
	if err != nil {
		t.Fatal(err)
	}
	widths := []float64{0.5, 1, 0.75}
	sys, err := NewSystemPi([]LocalRule{thr, obl, band}, 1, widths)
	if err != nil {
		t.Fatal(err)
	}
	k, ok := NewBatchKernel(sys)
	if !ok {
		t.Fatal("expected batch kernel")
	}
	if k.Dims() != 4 {
		t.Fatalf("dims = %d, want 4 (3 inputs + 1 coin)", k.Dims())
	}
	const start, b = 123, 777
	sc := GetBatchScratch()
	defer sc.Release()
	wins := k.PlayQMC(sc, fillSampler{}, start, b)

	want := 0
	buf := make([]float64, 1)
	for i := 0; i < b; i++ {
		idx := uint64(start + i)
		var x [3]float64
		for d := 0; d < 3; d++ {
			fillSampler{}.Fill(buf, d, idx, 1)
			x[d] = buf[0] * widths[d]
		}
		fillSampler{}.Fill(buf, 3, idx, 1)
		coin := buf[0]
		l0, l1 := 0.0, 0.0
		// player 0: threshold; player 1: oblivious coin; player 2: band.
		if x[0] > 0.4 {
			l1 += x[0]
		} else {
			l0 += x[0]
		}
		if coin >= 0.37 {
			l1 += x[1]
		} else {
			l0 += x[1]
		}
		if x[2] >= 0.2 && x[2] <= 0.45 {
			l0 += x[2]
		} else {
			l1 += x[2]
		}
		win := l0 <= 1 && l1 <= 1
		if win != sc.Wins()[i] {
			t.Fatalf("trial %d: PlayQMC win %v, reference %v", i, sc.Wins()[i], win)
		}
		if win {
			want++
		}
	}
	if wins != want {
		t.Fatalf("PlayQMC wins %d, reference %d", wins, want)
	}
}

// TestPlaySrcAndQMCAllocationFree extends the zero-allocation guard to
// the new kernel entries (satellite: lane kernel + QMC sampler at 0
// allocs/op steady state).
func TestPlaySrcAndQMCAllocationFree(t *testing.T) {
	thr, _ := NewThresholdRule(0.622)
	obl, _ := NewObliviousRule(0.37)
	sys, err := NewSystem([]LocalRule{thr, obl, thr}, 1)
	if err != nil {
		t.Fatal(err)
	}
	k, ok := NewBatchKernel(sys)
	if !ok {
		t.Fatal("expected batch kernel")
	}
	src := rand.NewPCG(9, 9)
	sc := GetBatchScratch()
	defer sc.Release()
	k.Play(sc, src, 256)
	if allocs := testing.AllocsPerRun(10, func() {
		k.Play(sc, src, 256)
	}); allocs != 0 {
		t.Errorf("steady-state Play allocates %v times per batch, want 0", allocs)
	}
	k.PlayQMC(sc, fillSampler{}, 0, 256)
	var at uint64
	if allocs := testing.AllocsPerRun(10, func() {
		k.PlayQMC(sc, fillSampler{}, at, 256)
		at += 256
	}); allocs != 0 {
		t.Errorf("steady-state PlayQMC allocates %v times per batch, want 0", allocs)
	}
}

// TestFeasibilityKernelMatchesPerTrial plays the feasibility kernel and
// the validating per-trial check on the same stream: every trial's flag,
// the win count, and the stream position after the batch must agree, and
// a warm Play must not allocate.
func TestFeasibilityKernelMatchesPerTrial(t *testing.T) {
	for _, tc := range []struct {
		n        int
		capacity float64
		widths   []float64
	}{
		{3, 1, nil},
		{8, 8.0 / 3, nil},
		{4, 1.1, []float64{0.5, 1, 1.5, 2}},
	} {
		k, err := NewFeasibilityKernel(tc.n, tc.capacity, tc.widths)
		if err != nil {
			t.Fatal(err)
		}
		const b = BatchSize + 37
		sc := GetBatchScratch()
		pcg := testPCG(21)
		wins := k.Play(sc, pcg, b)
		rng := testRNG(21)
		inputs := make([]float64, tc.n)
		want := 0
		for trial := 0; trial < b; trial++ {
			for i := range inputs {
				inputs[i] = rng.Float64()
				if tc.widths != nil {
					inputs[i] *= tc.widths[i]
				}
			}
			ok, err := FeasibleAssignmentExists(inputs, tc.capacity)
			if err != nil {
				t.Fatal(err)
			}
			if sc.Wins()[trial] != ok {
				t.Fatalf("n=%d trial %d: kernel %v, per-trial %v", tc.n, trial, sc.Wins()[trial], ok)
			}
			if ok {
				want++
			}
		}
		if wins != want || k.Dims() != tc.n {
			t.Errorf("n=%d: kernel wins %d dims %d, per-trial wins %d", tc.n, wins, k.Dims(), want)
		}
		if pcg.Uint64() != rng.Uint64() {
			t.Errorf("n=%d: kernel and per-trial streams diverged", tc.n)
		}
		if allocs := testing.AllocsPerRun(10, func() { k.Play(sc, pcg, b) }); allocs != 0 {
			t.Errorf("n=%d: warm Play allocates %v times, want 0", tc.n, allocs)
		}
		sc.Release()
	}
	for _, bad := range []struct {
		n        int
		capacity float64
		widths   []float64
	}{
		{0, 1, nil},
		{maxFeasibilityPlayers + 1, 1, nil},
		{3, 0, nil},
		{3, math.Inf(1), nil},
		{3, 1, []float64{1, 1}},
		{2, 1, []float64{1, -1}},
	} {
		if _, err := NewFeasibilityKernel(bad.n, bad.capacity, bad.widths); err == nil {
			t.Errorf("NewFeasibilityKernel(%d, %v, %v): expected error", bad.n, bad.capacity, bad.widths)
		}
	}
}
