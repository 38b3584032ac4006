package store_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/py91"
	"repro/internal/response"
	"repro/internal/sim"
	"repro/internal/store"
)

// canaryAnswers evaluates the canary request set: every rule kind the
// store persists, on every backend it supports, on a homogeneous instance
// and, where the rule accepts one, on a π instance; the Monte-Carlo
// backends run with a fixed seed and worker count. It returns the SHA-256
// of each answer's P and StdErr bits, in request order.
func canaryAnswers(t *testing.T) string {
	t.Helper()
	set, err := response.NewIntervalSet([]response.Interval{{Lo: 0, Hi: 0.3}, {Lo: 0.5, Hi: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := py91.NewWeightedAverageProtocol(py91.Broadcast, 0.6, 0.7, 0.65, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	hom := engine.Instance{N: 5, Delta: 1.7}
	pi := engine.Instance{N: 5, Delta: 1.4, Pi: []float64{1, 0.9, 0.8, 0.7, 0.6}}
	py := engine.Instance{N: py91.Players, Delta: py91.Capacity}
	all := []engine.Backend{engine.Exact, engine.MonteCarlo, engine.MonteCarloQMC}
	type request struct {
		rule     engine.Rule
		inst     engine.Instance
		backends []engine.Backend
	}
	var requests []request
	for _, r := range []engine.Rule{
		engine.SymmetricThreshold{Beta: 0.61},
		engine.Threshold{Thresholds: []float64{0.5, 0.6, 0.7, 0.55, 0.65}},
		engine.SymmetricOblivious{A: 0.5},
		engine.Oblivious{Alphas: []float64{0.3, 0.4, 0.5, 0.6, 0.7}},
		engine.DeterministicSplit{K: 2},
	} {
		requests = append(requests, request{r, hom, all}, request{r, pi, all})
	}
	requests = append(requests,
		// The interval-set oracle takes only U[0, 1] inputs.
		request{engine.IntervalRule{Set: set}, hom, all},
		request{engine.IntervalRule{Set: set}, pi, []engine.Backend{engine.MonteCarlo, engine.MonteCarloQMC}},
		// PY91 protocols simulate themselves, so quasi-Monte-Carlo
		// refuses them.
		request{engine.PY91Rule{Protocol: weighted}, py, []engine.Backend{engine.Exact, engine.MonteCarlo}},
	)
	e := engine.New(engine.Config{Sim: sim.Config{Trials: 20_000, Seed: 7, Workers: 2}})
	h := sha256.New()
	var buf [16]byte
	for _, req := range requests {
		for _, b := range req.backends {
			res, err := e.Evaluate(req.inst, req.rule, b)
			if err != nil {
				t.Fatalf("%s on n=%d π=%v, %v: %v", req.rule.Name(), req.inst.N, req.inst.Pi, b, err)
			}
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(res.P))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(res.StdErr))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStoredAnswerCanary ties the disk tier's entry version to the bits
// the code serves. The canary answers must hash to the last recorded
// canary, that canary must sit at the entry version, and no earlier
// version may have recorded the same hash. A change that moves a served
// bit therefore fails here until its hash is recorded at a new index and
// the entry version is bumped to it, so records written by older code are
// quarantined instead of served.
func TestStoredAnswerCanary(t *testing.T) {
	canaries := store.AnswerCanaries
	if len(canaries) != store.EntryVersion+1 {
		t.Fatalf("%d canaries recorded for entry versions 1..%d: record exactly one per version", len(canaries)-1, store.EntryVersion)
	}
	for v, c := range canaries[1:] {
		if b, err := hex.DecodeString(c); err != nil || len(b) != sha256.Size {
			t.Errorf("canary of entry version %d, %q, is not a hex SHA-256", v+1, c)
		}
	}
	got := canaryAnswers(t)
	if want := canaries[store.EntryVersion]; got != want {
		t.Errorf("canary answers hash to %s, entry version %d recorded %s: served bits moved; bump the entry version and record the new hash at its index", got, store.EntryVersion, want)
	}
	for v, c := range canaries[:store.EntryVersion] {
		if c == got {
			t.Errorf("entry versions %d and %d record the same canary %s", v, store.EntryVersion, c)
		}
	}
}
