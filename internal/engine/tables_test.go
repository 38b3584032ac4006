package engine

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/nonoblivious"
	"repro/internal/oblivious"
	"repro/internal/obs"
	"repro/internal/sim"
)

// pinInstance draws a seeded heterogeneous instance: π_i ∈ [½, 1) and
// δ within ±10% of n/3.
func pinInstance(seed uint64, n int) Instance {
	rng := rand.New(rand.NewPCG(seed, 36))
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 0.5 + 0.5*rng.Float64()
	}
	return Instance{N: n, Delta: float64(n) / 3 * (0.9 + 0.2*rng.Float64()), Pi: pi}
}

// TestSearchWithTablesKeepsOneShotResults pins heterogeneous Exact
// searches of every kind, whose probes are served from one set of exact
// tables per search, to the answers of the same searches probing one-shot:
// the optimum's bits, the parameter bits and the probe and cache-hit
// counts.
func TestSearchWithTablesKeepsOneShotResults(t *testing.T) {
	pins := []struct {
		seed        uint64
		n           int
		kind        string
		p           uint64
		params      []uint64
		evals, hits int
	}{
		{1, 4, "oblivious", 0x3fe9eda613a301ee, []uint64{0x3fdffffff9cb9be1}, 144, 0},
		{1, 4, "threshold", 0x3feb8c09aef76b8b, []uint64{0x3fe139925257307b}, 144, 0},
		{1, 4, "vector", 0x3fef32965e6e43ee, []uint64{0x3fea6d4074d1ee7e, 0x3fea281514e2d2be, 0x0, 0x3e538a52acccbc08}, 1187, 145},
		{2, 5, "oblivious", 0x3fec845fb0cbeeba, []uint64{0x3fdffffff9cb9be1}, 144, 0},
		{2, 5, "threshold", 0x3fed591f0951d1fa, []uint64{0x3fe148e636bc09ef}, 144, 0},
		{2, 5, "vector", 0x3fef1395693e9471, []uint64{0x3fe1b95507f7211e, 0x3fe9bd9741f67552, 0x3f0ac95691591800, 0x3ef84e3d13288a00, 0x3fdb300c9779e73e}, 1018, 57},
		{3, 6, "oblivious", 0x3fea518955f97e8f, []uint64{0x3fdffffffad60cfd}, 144, 0},
		{3, 6, "threshold", 0x3febd2306830fff5, []uint64{0x3fe10b36f620547b}, 144, 0},
		{3, 6, "vector", 0x3feef6cde7b6533d, []uint64{0x3fec2aa65c148274, 0x3fe22c25ecdd2890, 0x0, 0x0, 0x3fe1660371b37072, 0x0}, 1633, 214},
	}
	for _, c := range pins {
		inst := pinInstance(c.seed, c.n)
		fam, err := FamilyForKind(c.kind)
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(Config{}).OptimizeCtx(context.Background(), inst, fam, OptimizeOptions{Backend: Exact})
		if err != nil {
			t.Fatalf("seed %d %s: %v", c.seed, c.kind, err)
		}
		if got := math.Float64bits(res.Value); got != c.p {
			t.Errorf("seed %d %s: P bits %#x, want %#x", c.seed, c.kind, got, c.p)
		}
		if len(res.Params) != len(c.params) {
			t.Fatalf("seed %d %s: %d params, want %d", c.seed, c.kind, len(res.Params), len(c.params))
		}
		for i, v := range res.Params {
			if got := math.Float64bits(v); got != c.params[i] {
				t.Errorf("seed %d %s: param %d bits %#x, want %#x", c.seed, c.kind, i, got, c.params[i])
			}
		}
		if res.Evals != c.evals || res.CacheHits != c.hits {
			t.Errorf("seed %d %s: %d evals and %d cache hits, want %d and %d", c.seed, c.kind, res.Evals, res.CacheHits, c.evals, c.hits)
		}
	}
}

// TestSweepThresholdTablesMatchPointwise runs a heterogeneous threshold
// sweep, shared-β and distinct-threshold points mixed, whose workers serve
// every point from one kernel each, and requires every value to equal the
// point's lone EvaluateWithCtx on a fresh engine bit for bit.
func TestSweepThresholdTablesMatchPointwise(t *testing.T) {
	inst := pinInstance(7, 7)
	rng := rand.New(rand.NewPCG(7, 1))
	var points []Point
	for i := 0; i < 24; i++ {
		var r Rule = SymmetricThreshold{Beta: float64(i) / 23}
		if i%3 == 2 {
			a := make([]float64, inst.N)
			for j := range a {
				a[j] = rng.Float64()
			}
			r = Threshold{Thresholds: a}
		}
		points = append(points, Point{Instance: inst, Rule: r})
	}
	results, err := New(Config{}).Sweep(context.Background(), points, SweepOptions{Backend: Exact, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range points {
		want, err := New(Config{}).EvaluateWithCtx(context.Background(), inst, pt.Rule, Exact, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if results[i].P != want.P {
			t.Errorf("point %d (%s): sweep %v, lone evaluation %v", i, pt.Rule.Name(), results[i].P, want.P)
		}
	}
}

// TestTableSweepCounters pins the exact.* counters of a 3-point α sweep
// and a 3-point threshold sweep on π = (½, 5/4, ¾, 2, 1, 3/2), δ = 2, with
// one worker. The α sweep builds the π-only CDF table once: 2^6 cells,
// 6·2^6 power updates and 6²·2^5 zeta additions, and nothing per point,
// against three tables for three one-shots. Each threshold point rebuilds
// its tables and records them as its one-shot does, so the threshold
// sweep's counters are the sum of its points' one-shot counters. At
// β = ¼ and ½ every bin-0 width min(β, π_i) is β, so the bin-0 table is
// the per-cardinality ladder (2^6 cells, 6·7 ladder cells and 56
// additions); at β = ½ and ⅝ player 0 (π = ½ ≤ β) never chooses bin 1, so
// the bin-1 ladder runs over the 2^5 subsets of the others. The bin-1
// passes are 5 over 2^6 cells at β = ¼, 2 over 2^5 at ½ and 2 over 2^5 at
// ⅝, whose bin-0 table is the full 6·2^6 + 6²·2^5.
func TestTableSweepCounters(t *testing.T) {
	inst := Instance{N: 6, Delta: 2, Pi: []float64{0.5, 1.25, 0.75, 2, 1, 1.5}}
	check := func(what string, got, want [3]int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: subsets, incremental and rebuilt steps %v, want %v", what, got, want)
		}
	}
	var alpha, beta []Point
	for _, x := range []float64{0.25, 0.5, 0.625} {
		alpha = append(alpha, Point{Instance: inst, Rule: SymmetricOblivious{A: x}})
		beta = append(beta, Point{Instance: inst, Rule: SymmetricThreshold{Beta: x}})
	}
	check("α sweep", exactWork(t, alpha), [3]int64{64, 6*64 + 36*32, 0})
	var oneShots [3]int64
	for _, pt := range beta {
		for j, v := range exactWork(t, []Point{pt}) {
			oneShots[j] += v
		}
	}
	got := exactWork(t, beta)
	check("threshold sweep against its one-shots", got, oneShots)
	check("threshold sweep", got, [3]int64{320, 3012, 448})
}

// exactWork returns the exact.* counters of a one-worker Exact sweep of
// the points on a fresh engine: subsets, incremental and rebuilt steps.
func exactWork(t *testing.T, points []Point) [3]int64 {
	t.Helper()
	reg := obs.NewRegistry()
	e := New(Config{Obs: obs.New(reg, nil)})
	if _, err := e.Sweep(context.Background(), points, SweepOptions{Backend: Exact, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	return [3]int64{snap.Counters["exact.subsets"], snap.Counters["exact.steps.incremental"], snap.Counters["exact.steps.rebuilt"]}
}

// TestSweepMixedInstancesOneKernel runs one sweep worker over points on
// two heterogeneous instances and a homogeneous one, with α, β and
// threshold-vector rules interleaved. Every value must equal the point's
// lone evaluation bit for bit. The worker's one kernel decides what each
// point rebuilds: an α point right after an α point on the same
// instance (homogeneous α points in between touch no table) records no
// table work, and every other point records its lone evaluation's full
// build. Homogeneous threshold vectors build into the same kernel, so the
// α point after one rebuilds, and a homogeneous vector after a
// heterogeneous one rebuilds too. Last, one set of tables goes from a
// homogeneous vector to the same vector on π and back, each bit-equal to
// its lone evaluation and recording its work, and then repeats the
// homogeneous vector, which the kept kernel serves with no table work
// (the sweep itself would answer a repeat from the memo store).
func TestSweepMixedInstancesOneKernel(t *testing.T) {
	a := mustInstancePi(t, 5, 1.75, []float64{0.5, 0.875, 0.75, 1, 0.625})
	b := mustInstancePi(t, 5, 1.5, []float64{0.75, 0.5, 1, 0.875, 0.625})
	hom := Instance{N: 5, Delta: 1.75}
	steps := []struct {
		inst  Instance
		rule  Rule
		reuse bool
	}{
		{a, SymmetricOblivious{A: 0.3}, false},
		{a, SymmetricOblivious{A: 0.6}, true},
		{a, SymmetricThreshold{Beta: 0.4}, false},
		{a, SymmetricOblivious{A: 0.5}, false},
		{hom, SymmetricOblivious{A: 0.5}, false},
		{hom, Threshold{Thresholds: []float64{0.5, 0.25, 0.75, 0.5, 0.625}}, false},
		{a, Oblivious{Alphas: []float64{0.1, 0.9, 0.4, 0.6, 0.5}}, false},
		{b, SymmetricOblivious{A: 0.5}, false},
		{b, Threshold{Thresholds: []float64{0.5, 0.25, 0.75, 0.5, 0.625}}, false},
		{hom, Threshold{Thresholds: []float64{0.125, 0.5, 0.5, 0.875, 0.25}}, false},
		{b, SymmetricThreshold{Beta: 0.4}, false},
		{b, DeterministicSplit{K: 2}, false},
		{b, SymmetricOblivious{A: 0.25}, true},
		{a, SymmetricOblivious{A: 0.7}, false},
		{a, SymmetricThreshold{Beta: 0.55}, false},
	}
	points := make([]Point, len(steps))
	for i, s := range steps {
		points[i] = Point{Instance: s.inst, Rule: s.rule}
	}
	results, err := New(Config{}).Sweep(context.Background(), points, SweepOptions{Backend: Exact, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev := [3]int64{}
	for i, pt := range points {
		lone, err := New(Config{}).EvaluateWithCtx(context.Background(), pt.Instance, pt.Rule, Exact, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(results[i].P) != math.Float64bits(lone.P) {
			t.Errorf("point %d (%s): sweep %v, lone evaluation %v", i, pt.Rule.Name(), results[i].P, lone.P)
		}
		// The point's work is what the sweep up to it adds.
		upTo := exactWork(t, points[:i+1])
		var got [3]int64
		for j := range got {
			got[j] = upTo[j] - prev[j]
		}
		prev = upTo
		want := exactWork(t, points[i:i+1])
		if steps[i].reuse {
			want = [3]int64{}
		}
		if got != want {
			t.Errorf("point %d (%s): table work %v, want %v", i, pt.Rule.Name(), got, want)
		}
		_, vector := pt.Rule.(Threshold)
		if (pt.Instance.Heterogeneous() || vector) && !steps[i].reuse && got == ([3]int64{}) {
			t.Errorf("point %d (%s): no table work", i, pt.Rule.Name())
		}
	}

	tables := new(exactTables)
	th := []float64{0.5, 0.25, 0.75, 0.5, 0.625}
	for i, inst := range []Instance{hom, b, hom, hom} {
		reg := obs.NewRegistry()
		got, err := tables.threshold(th, inst, obs.New(reg, nil))
		if err != nil {
			t.Fatal(err)
		}
		lone, err := New(Config{}).EvaluateWithCtx(context.Background(), inst, Threshold{Thresholds: th}, Exact, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(lone.P) {
			t.Errorf("tables step %d: %v, lone evaluation %v", i, got, lone.P)
		}
		snap := reg.Snapshot()
		work := [3]int64{snap.Counters["exact.subsets"], snap.Counters["exact.steps.incremental"], snap.Counters["exact.steps.rebuilt"]}
		want := exactWork(t, []Point{{Instance: inst, Rule: Threshold{Thresholds: th}}})
		if i == 3 {
			want = [3]int64{}
		}
		if work != want {
			t.Errorf("tables step %d: table work %v, want %v", i, work, want)
		}
	}
}

// TestTablesUnderExpiringDeadline runs a heterogeneous threshold sweep and
// an α and a vector search whose deadlines strike mid-run, so evaluations
// abandoned with their owner's tables keep running in the background (run
// it under -race). Every point evaluated afterwards, cached or computed,
// must carry the one-shot bits.
func TestTablesUnderExpiringDeadline(t *testing.T) {
	inst := pinInstance(11, 12)
	reg := obs.NewRegistry()
	e := New(Config{Obs: obs.New(reg, nil)})
	var points []Point
	for i := 0; i < 64; i++ {
		points = append(points, Point{Instance: inst, Rule: SymmetricThreshold{Beta: float64(i) / 63}})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	_, _ = e.Sweep(ctx, points, SweepOptions{Backend: Exact, Workers: 2})
	cancel()
	for _, kind := range []string{"oblivious", "vector"} {
		fam, err := FamilyForKind(kind)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		res, err := e.OptimizeCtx(ctx, inst, fam, OptimizeOptions{Backend: Exact})
		cancel()
		if err == nil {
			points = append(points, Point{Instance: inst, Rule: res.Rule})
		}
	}
	t.Logf("%d evaluations abandoned at their deadline", reg.Counter("engine.evals.abandoned").Value())
	for i, pt := range points {
		got, err := e.EvaluateWithCtx(context.Background(), inst, pt.Rule, Exact, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		switch r := pt.Rule.(type) {
		case SymmetricThreshold:
			want, err = nonoblivious.WinningProbabilityPi(repeated(r.Beta, inst.N), inst.Pi, inst.Delta, nil)
		case Threshold:
			want, err = nonoblivious.WinningProbabilityPi(r.Thresholds, inst.Pi, inst.Delta, nil)
		case SymmetricOblivious:
			want, err = oblivious.WinningProbabilityPi(repeated(r.A, inst.N), inst.Pi, inst.Delta, nil)
		default:
			t.Fatalf("unexpected rule %T", pt.Rule)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got.P != want {
			t.Errorf("point %d (%s, cached %v): %v, one-shot %v", i, pt.Rule.Name(), got.Cached, got.P, want)
		}
	}
}

// TestTableServedAlphaPointAllocs pins an α point served from a kept CDF
// table at zero allocations: the kernel re-weights its mass tables in
// place and the players live on the stack. A homogeneous threshold-vector
// point that rebuilds every table of the same warm kernel allocates
// nothing either, and nor do a vector of distinct thresholds on π, whose
// bin-1 table is the per-set walk, and a shared β above some π_i, whose
// bin-1 ladder runs over the other players' subsets.
func TestTableServedAlphaPointAllocs(t *testing.T) {
	inst := pinInstance(5, 10)
	tables := new(exactTables)
	alphas := repeated(0.5, inst.N)
	if _, err := tables.oblivious(alphas, inst, nil); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() {
		alphas[0] = 1 - alphas[0]
		if _, err := tables.oblivious(alphas, inst, nil); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("table-served α point: %v allocs, want 0", got)
	}
	hom := Instance{N: inst.N, Delta: inst.Delta}
	th := repeated(0.5, inst.N)
	th[0] = 0.25
	next := func(o *obs.Observer) {
		th[0] = 1 - th[0]
		if _, err := tables.threshold(th, hom, o); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(20, func() { next(nil) }); got != 0 {
		t.Errorf("homogeneous threshold vector rebuilt into a warm kernel: %v allocs, want 0", got)
	}
	reg := obs.NewRegistry()
	next(obs.New(reg, nil))
	if reg.Snapshot().Counters["exact.subsets"] == 0 {
		t.Error("the homogeneous threshold vector did not rebuild the tables")
	}
	distinct := make([]float64, inst.N)
	for i := range distinct {
		distinct[i] = 0.3 + 0.04*float64(i)
	}
	for _, c := range []struct {
		name string
		th   []float64
		all  bool    // every threshold moves, or th[0] alone
		flip float64 // a moving threshold goes between x and flip − x
	}{
		{"distinct thresholds on π", distinct, false, 0.65},
		{"a shared β above some π_i", repeated(0.55, inst.N), true, 1.15},
	} {
		rebuild := func(o *obs.Observer) {
			for i := range c.th {
				if i == 0 || c.all {
					c.th[i] = c.flip - c.th[i]
				}
			}
			if _, err := tables.threshold(c.th, inst, o); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(20, func() { rebuild(nil) }); got != 0 {
			t.Errorf("%s rebuilt into a warm kernel: %v allocs, want 0", c.name, got)
		}
		reg = obs.NewRegistry()
		rebuild(obs.New(reg, nil))
		snap := reg.Snapshot()
		if snap.Counters["exact.steps.rebuilt"] == 0 {
			t.Errorf("%s: no bin-1 work", c.name)
		}
		if c.all && snap.Counters["exact.subsets"] >= 2<<uint(inst.N) {
			t.Errorf("%s: the bin-1 table covers the sets with a point player", c.name)
		}
	}
}
