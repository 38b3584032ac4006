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
	if !sweepUsesTables(points, Exact) {
		t.Fatal("the threshold sweep does not qualify for tables")
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
// sweep's counters are the sum of its points' one-shot counters.
func TestTableSweepCounters(t *testing.T) {
	inst := Instance{N: 6, Delta: 2, Pi: []float64{0.5, 1.25, 0.75, 2, 1, 1.5}}
	counters := func(points []Point) map[string]int64 {
		t.Helper()
		reg := obs.NewRegistry()
		e := New(Config{Obs: obs.New(reg, nil)})
		if _, err := e.Sweep(context.Background(), points, SweepOptions{Backend: Exact, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		return map[string]int64{
			"exact.subsets":           snap.Counters["exact.subsets"],
			"exact.steps.incremental": snap.Counters["exact.steps.incremental"],
			"exact.steps.rebuilt":     snap.Counters["exact.steps.rebuilt"],
		}
	}
	check := func(what string, got, want map[string]int64) {
		t.Helper()
		for name, v := range want {
			if got[name] != v {
				t.Errorf("%s: counter %s = %d, want %d", what, name, got[name], v)
			}
		}
	}
	var alpha, beta []Point
	for _, x := range []float64{0.25, 0.5, 0.625} {
		alpha = append(alpha, Point{Instance: inst, Rule: SymmetricOblivious{A: x}})
		beta = append(beta, Point{Instance: inst, Rule: SymmetricThreshold{Beta: x}})
	}
	check("α sweep", counters(alpha), map[string]int64{
		"exact.subsets":           64,
		"exact.steps.incremental": 6*64 + 36*32,
		"exact.steps.rebuilt":     0,
	})
	oneShots := map[string]int64{}
	for _, pt := range beta {
		for name, v := range counters([]Point{pt}) {
			oneShots[name] += v
		}
	}
	got := counters(beta)
	check("threshold sweep against its one-shots", got, oneShots)
	check("threshold sweep", got, map[string]int64{
		"exact.subsets":           384,
		"exact.steps.incremental": 6336,
		"exact.steps.rebuilt":     576,
	})
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
