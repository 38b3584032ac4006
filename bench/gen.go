package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro/internal/engine"
	"repro/internal/problem"
	"repro/internal/serve"
)

// The generators below turn a seed into request bodies. Everything the
// benchmark sends is drawn here; the server only ever sees these bytes.
//
// Sizes that set the cost of a request (player counts, grid sizes, the mix
// of request classes) are fixed by the workload, and the seed draws only
// the values inside them (capacities, input ranges, rule parameters). Two
// seeds therefore send different requests of the same cost profile, which
// is what lets runs on different seeds be compared.

// newRNG derives an independent stream per (seed, purpose) pair.
func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x6e6f636f6d6d^stream))
}

// Generator streams.
const (
	streamHot = iota + 1
	streamZipf
	streamRestartOrder
	streamCold
	streamColdSample
	streamOptimize
)

// evalOp is one /v1/eval request: its wire body and the decoded fields the
// in-process replays and checks need.
type evalOp struct {
	body []byte
	req  serve.EvalRequest
}

func newEvalOp(req serve.EvalRequest) evalOp {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // the request types are plain data; Marshal cannot fail
	}
	return evalOp{body: body, req: req}
}

// instance and rule rebuild the request's engine inputs exactly as the
// handler does.
func (op evalOp) instance() (engine.Instance, error) {
	if len(op.req.Pi) > 0 {
		return problem.NewPi(op.req.N, op.req.Delta, op.req.Pi)
	}
	return problem.New(op.req.N, op.req.Delta)
}

func (op evalOp) rule() engine.Rule {
	if op.req.Kind == "oblivious" {
		return engine.SymmetricOblivious{A: op.req.Param}
	}
	return engine.SymmetricThreshold{Beta: op.req.Param}
}

// storeKey mirrors the engine's memoization key for an exact evaluation
// (engine.EvaluateWithCtx), so the store-level replay touches the entry
// the request touched.
func (op evalOp) storeKey() (string, error) {
	inst, err := op.instance()
	if err != nil {
		return "", err
	}
	return inst.Key() + "|r=" + op.rule().Fingerprint() + "|b=" + engine.Exact.String(), nil
}

// randPi draws n heterogeneous input ranges π_i ∈ [0.5, 1).
func randPi(rng *rand.Rand, n int) []float64 {
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 0.5 + 0.5*rng.Float64()
	}
	return pi
}

// randDelta draws a capacity within ±spread of the paper's δ = n/3 scaling.
func randDelta(rng *rand.Rand, n int, spread float64) float64 {
	return float64(n) / 3 * (1 - spread + 2*spread*rng.Float64())
}

// heteroEval draws one exact /v1/eval of the given kind on a heterogeneous
// n-player instance.
func heteroEval(rng *rand.Rand, kind string, n int) evalOp {
	return newEvalOp(serve.EvalRequest{
		N:       n,
		Delta:   randDelta(rng, n, 0.2),
		Pi:      randPi(rng, n),
		Kind:    kind,
		Param:   0.3 + 0.5*rng.Float64(),
		Backend: "exact",
	})
}

// hotKeys draws the eval-hot / eval-restart key set: count distinct exact
// evaluations on heterogeneous instances, π_i ∈ [0.5, 1). Key i is a
// threshold rule for even i and an oblivious one for odd i, on
// n = 8 + i mod 5 players, so the size of every key — and of the popular
// ones under a Zipf draw — is the same for every seed.
func hotKeys(seed uint64, count int) []evalOp {
	rng := newRNG(seed, streamHot)
	ops := make([]evalOp, count)
	for i := range ops {
		kind := "threshold"
		if i%2 == 1 {
			kind = "oblivious"
		}
		ops[i] = heteroEval(rng, kind, 8+i%5)
	}
	return ops
}

// Pinned eval-cold requests: the paper's n=3, δ=1 optimum (Section 5.2.1)
// and the heterogeneous π = (1/2, 1, 1) instance.
const (
	pinBetaStar = 0.6220355269907728
	pinPStar    = 0.5446311396758939
)

func coldPins() []evalOp {
	return []evalOp{
		newEvalOp(serve.EvalRequest{N: 3, Delta: 1, Kind: "threshold", Param: pinBetaStar, Backend: "exact"}),
		newEvalOp(serve.EvalRequest{N: 3, Delta: 1, Pi: []float64{0.5, 1, 1}, Kind: "threshold", Param: 0.5, Backend: "exact"}),
	}
}

// coldClass is one slot of the eval-cold cycle.
type coldClass struct {
	kind   string
	n      int
	hetero bool
}

// coldCycle is the eval-cold request mix, one entry per request of a
// cycle: 80% heterogeneous n ∈ [10, 15] split evenly between threshold and
// oblivious rules (the subset-enumeration kernels), 20% homogeneous
// n ∈ [16, 25] thresholds (the closed form). Every cycle holds the same
// classes in a seeded order, so the mix is exact whatever the seed.
func coldCycle() []coldClass {
	var c []coldClass
	for n := 10; n <= 15; n++ {
		for rep := 0; rep < 4; rep++ {
			c = append(c, coldClass{"threshold", n, true}, coldClass{"oblivious", n, true})
		}
	}
	for j := 0; j < 12; j++ {
		c = append(c, coldClass{"threshold", 16 + j%10, false})
	}
	return c
}

// coldGen streams distinct eval-cold requests cycle by cycle.
type coldGen struct {
	rng     *rand.Rand
	classes []coldClass
}

func newColdGen(seed uint64) *coldGen {
	return &coldGen{rng: newRNG(seed, streamCold), classes: coldCycle()}
}

// cycle draws the next cycle's requests.
func (g *coldGen) cycle() []evalOp {
	ops := make([]evalOp, len(g.classes))
	for i, c := range g.classes {
		if c.hetero {
			ops[i] = heteroEval(g.rng, c.kind, c.n)
			continue
		}
		ops[i] = newEvalOp(serve.EvalRequest{
			N:       c.n,
			Delta:   randDelta(g.rng, c.n, 0.2),
			Kind:    c.kind,
			Param:   0.3 + 0.5*g.rng.Float64(),
			Backend: "exact",
		})
	}
	g.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// apiOp is one optimize-sweep request.
type apiOp struct {
	class string // cycle slot, see optimizeGen.cycle
	path  string // /v1/optimize or /v1/sweep
	body  []byte
	opt   *serve.OptimizeRequest
	sweep *serve.SweepRequest
	pair  int // index (within the cycle) of the threshold search on the same instance, -1 if none
}

// optimizeSizes fixes the cost of each optimize-sweep request class.
type optimizeSizes struct {
	homogN    int // vector vs threshold search, homogeneous (table reuse applies)
	heteroN   int // vector vs threshold search, heterogeneous (no table reuse)
	sweepThrN int // threshold sweep, rebuilds its tables per point
	sweepOblN int // oblivious sweep, reuses a per-worker evaluator
	oblN      int // oblivious α search, heterogeneous
	points    int // grid of each sweep
}

// defaultOptimizeSizes spread the classes' costs so that, with whole
// cycles, the median request is the oblivious α search and the p80
// request the homogeneous vector search; the threshold sweep is the
// slowest class.
var defaultOptimizeSizes = optimizeSizes{homogN: 10, heteroN: 6, sweepThrN: 11, sweepOblN: 12, oblN: 10, points: 1024}

// optimizeGen streams optimize-sweep cycles.
type optimizeGen struct {
	rng *rand.Rand
	sz  optimizeSizes
}

func newOptimizeGen(seed uint64, sz optimizeSizes) *optimizeGen {
	return &optimizeGen{rng: newRNG(seed, streamOptimize), sz: sz}
}

func optimizeOp(class string, req serve.OptimizeRequest, pair int) apiOp {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain data; Marshal cannot fail
	}
	return apiOp{class: class, path: "/v1/optimize", body: body, opt: &req, pair: pair}
}

func sweepOp(class string, req serve.SweepRequest) apiOp {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain data; Marshal cannot fail
	}
	return apiOp{class: class, path: "/v1/sweep", body: body, sweep: &req, pair: -1}
}

// cycle draws the next seven requests: threshold and vector searches on
// one homogeneous and one heterogeneous instance, a streamed threshold
// sweep, a streamed oblivious sweep and an oblivious α search.
func (g *optimizeGen) cycle() []apiOp {
	rng, sz := g.rng, g.sz
	homogDelta := randDelta(rng, sz.homogN, 0.1)
	heteroPi, heteroDelta := randPi(rng, sz.heteroN), randDelta(rng, sz.heteroN, 0.1)
	sweep := func(kind string, n int) serve.SweepRequest {
		return serve.SweepRequest{
			Delta: randDelta(rng, n, 0.1), Pi: randPi(rng, n), Kind: kind,
			From: 0, To: 1, Points: sz.points, Backend: "exact", Stream: true,
		}
	}
	thrSweep := sweep("threshold", sz.sweepThrN)
	oblSweep := sweep("oblivious", sz.sweepOblN)
	oblPi, oblDelta := randPi(rng, sz.oblN), randDelta(rng, sz.oblN, 0.1)
	return []apiOp{
		optimizeOp("threshold-homog", serve.OptimizeRequest{N: sz.homogN, Delta: homogDelta, Kind: "threshold", Backend: "exact"}, -1),
		optimizeOp("vector-homog", serve.OptimizeRequest{N: sz.homogN, Delta: homogDelta, Kind: "vector", Backend: "exact"}, 0),
		optimizeOp("threshold-hetero", serve.OptimizeRequest{Delta: heteroDelta, Pi: heteroPi, Kind: "threshold", Backend: "exact"}, -1),
		optimizeOp("vector-hetero", serve.OptimizeRequest{Delta: heteroDelta, Pi: heteroPi, Kind: "vector", Backend: "exact"}, 2),
		sweepOp("sweep-threshold", thrSweep),
		sweepOp("sweep-oblivious", oblSweep),
		optimizeOp("oblivious-hetero", serve.OptimizeRequest{Delta: oblDelta, Pi: oblPi, Kind: "oblivious", Backend: "exact"}, -1),
	}
}

// instance rebuilds an optimize or sweep request's instance.
func (op apiOp) instance() (engine.Instance, error) {
	n, delta, pi := 0, 0.0, []float64(nil)
	if op.opt != nil {
		n, delta, pi = op.opt.N, op.opt.Delta, op.opt.Pi
	} else {
		n, delta, pi = op.sweep.N, op.sweep.Delta, op.sweep.Pi
	}
	if n == 0 {
		n = len(pi)
	}
	if len(pi) > 0 {
		return problem.NewPi(n, delta, pi)
	}
	return problem.New(n, delta)
}

// sweepPoints rebuilds a sweep request's grid as engine points.
func (op apiOp) sweepPoints(inst engine.Instance) ([]engine.Point, error) {
	req := op.sweep
	if req.Points < 2 {
		return nil, fmt.Errorf("sweep of %d points", req.Points)
	}
	pts := make([]engine.Point, req.Points)
	step := (req.To - req.From) / float64(req.Points-1)
	for i := range pts {
		p := req.From + float64(i)*step
		var r engine.Rule = engine.SymmetricThreshold{Beta: p}
		if req.Kind == "oblivious" {
			r = engine.SymmetricOblivious{A: p}
		}
		pts[i] = engine.Point{Instance: inst, Rule: r}
	}
	return pts, nil
}
