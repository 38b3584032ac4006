package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// newTestServer builds a server with an observer (registry + in-memory
// sink) sized for tests.
func newTestServer(t *testing.T, cfg Config) (*Server, *obs.Observer, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	o := obs.New(obs.NewRegistry(), obs.NewSink(&buf))
	cfg.Obs = o
	if cfg.Engine == nil {
		cfg.Engine = engine.New(engine.Config{Obs: o})
	}
	return New(cfg), o, &buf
}

// postJSON posts body to path on h and returns the recorder.
func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestHealthzGolden pins the /healthz reply byte-for-byte.
func TestHealthzGolden(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	checkGolden(t, "healthz.golden", rec.Body.Bytes())
}

// TestEvalCanonicalGolden pins the canonical exact evaluation — the
// pinned optimum of the n=3, δ=1 case (Section 5.2.1) — byte-for-byte,
// so the response encoding (field set, order, float formatting) cannot
// drift silently.
func TestEvalCanonicalGolden(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	rec := postJSON(t, s.Handler(), "/v1/eval",
		`{"n":3,"delta":1,"kind":"threshold","param":0.6220355269907728,"backend":"exact"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	checkGolden(t, "eval_canonical.golden", rec.Body.Bytes())

	var resp EvalResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if want := 0.5446311396758939; resp.P != want {
		t.Errorf("P = %v, want pinned optimum %v", resp.P, want)
	}
	if resp.Backend != "exact" || resp.Cached || resp.Degraded {
		t.Errorf("unexpected response flags: %+v", resp)
	}
}

// TestEvalMonteCarlo checks the mc backend surfaces trials and a
// standard error, and that a repeated request is served from the cache.
func TestEvalMonteCarlo(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	body := `{"n":3,"delta":1,"kind":"threshold","param":0.5,"backend":"mc","trials":10000,"seed":7}`
	rec := postJSON(t, s.Handler(), "/v1/eval", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp EvalResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Backend != "mc" || resp.Trials != 10000 || resp.StdErr <= 0 {
		t.Errorf("unexpected mc response: %+v", resp)
	}
	if resp.P <= 0 || resp.P >= 1 {
		t.Errorf("P = %v out of (0,1)", resp.P)
	}

	rec = postJSON(t, s.Handler(), "/v1/eval", body)
	var again EvalResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeated request should be served from the cache")
	}
	if again.P != resp.P {
		t.Errorf("cached P = %v differs from first %v", again.P, resp.P)
	}
}

// TestEvalAutoPastExactCap checks that an auto request beyond the exact
// oracle's player cap (n=30 > 25) is answered by Monte-Carlo, not refused.
func TestEvalAutoPastExactCap(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	body := `{"n":30,"delta":10,"kind":"threshold","param":0.5,"backend":"auto","trials":2000,"seed":7}`
	rec := postJSON(t, s.Handler(), "/v1/eval", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp EvalResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Backend != "mc" || resp.Trials != 2000 || resp.Degraded {
		t.Errorf("unexpected auto response: %+v", resp)
	}
}

// TestEvalQMC drives /v1/eval on the mc-qmc backend end to end: the
// response carries the replicate count and a replicate-based stderr, a
// worker-count change is a cache hit (QMC results are worker-
// independent), and invalid replicate counts are 400s.
func TestEvalQMC(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	body := `{"n":3,"delta":1,"kind":"threshold","param":0.5,"backend":"mc-qmc","trials":16384,"seed":7,"replicates":8}`
	rec := postJSON(t, s.Handler(), "/v1/eval", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp EvalResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Backend != "mc-qmc" || resp.Replicates != 8 || resp.StdErr <= 0 {
		t.Errorf("unexpected mc-qmc response: %+v", resp)
	}
	if resp.Trials != 16384 {
		t.Errorf("Trials = %d, want 16384 (replicates divide the budget evenly)", resp.Trials)
	}
	if resp.P <= 0 || resp.P >= 1 {
		t.Errorf("P = %v out of (0,1)", resp.P)
	}

	other := `{"n":3,"delta":1,"kind":"threshold","param":0.5,"backend":"mc-qmc","trials":16384,"seed":7,"replicates":8,"workers":4}`
	rec = postJSON(t, s.Handler(), "/v1/eval", other)
	var again EvalResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("worker-count change should hit the worker-independent qmc cache slot")
	}
	if again.P != resp.P || again.StdErr != resp.StdErr {
		t.Errorf("cached response %+v differs from first %+v", again, resp)
	}

	for _, bad := range []string{
		`{"n":3,"delta":1,"kind":"threshold","param":0.5,"backend":"mc-qmc","replicates":-1}`,
		`{"n":3,"delta":1,"kind":"threshold","param":0.5,"backend":"mc-qmc","trials":100,"replicates":200}`,
		`{"n":3,"delta":1,"kind":"threshold","param":0.5,"backend":"mc-qmc","trials":1000,"replicates":1}`,
	} {
		rec := postJSON(t, s.Handler(), "/v1/eval", bad)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %s: status = %d, want 400 (%s)", bad, rec.Code, rec.Body.String())
		}
	}
}

// TestEvalErrors checks the stable error shape across rejection paths.
func TestEvalErrors(t *testing.T) {
	s, _, _ := newTestServer(t, Config{MaxBodyBytes: 256})
	cases := []struct {
		name   string
		method string
		body   string
		status int
	}{
		{"get", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"malformed", http.MethodPost, `{"n":3,`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, `{"n":3,"delta":1,"kind":"threshold","param":0.5,"bogus":1}`, http.StatusBadRequest},
		{"trailing garbage", http.MethodPost, `{"n":3,"delta":1,"kind":"threshold","param":0.5} extra`, http.StatusBadRequest},
		{"missing kind", http.MethodPost, `{"n":3,"delta":1,"param":0.5}`, http.StatusBadRequest},
		{"bad kind", http.MethodPost, `{"n":3,"delta":1,"kind":"psychic","param":0.5}`, http.StatusBadRequest},
		{"n too large", http.MethodPost, `{"n":1000,"delta":1,"kind":"threshold","param":0.5}`, http.StatusBadRequest},
		{"bad delta", http.MethodPost, `{"n":3,"delta":-1,"kind":"threshold","param":0.5}`, http.StatusBadRequest},
		{"bad backend", http.MethodPost, `{"n":3,"delta":1,"kind":"threshold","param":0.5,"backend":"quantum"}`, http.StatusBadRequest},
		{"oversized", http.MethodPost, `{"pi":[` + strings.Repeat("0.5,", 200) + `0.5]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, "/v1/eval", strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body.String())
			}
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("error body is not the stable shape: %v (%s)", err, rec.Body.String())
			}
			if eb.Error.Code == "" || eb.Error.Message == "" {
				t.Errorf("error body missing code/message: %s", rec.Body.String())
			}
		})
	}
}

// TestSweep checks a linear grid sweep and its cache behavior.
func TestSweep(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	body := `{"n":3,"delta":1,"kind":"threshold","from":0.2,"to":0.8,"points":4,"backend":"exact"}`
	rec := postJSON(t, s.Handler(), "/v1/sweep", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(resp.Points))
	}
	if resp.Points[0].Param != 0.2 || resp.Points[3].Param != 0.8 {
		t.Errorf("grid endpoints = %v, %v, want 0.2, 0.8", resp.Points[0].Param, resp.Points[3].Param)
	}
	for _, p := range resp.Points {
		if p.P <= 0 || p.P >= 1 || p.Backend != "exact" {
			t.Errorf("suspect point %+v", p)
		}
	}

	rec = postJSON(t, s.Handler(), "/v1/sweep", body)
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for _, p := range resp.Points {
		if !p.Cached {
			t.Errorf("repeated sweep point %v not cached", p.Param)
		}
	}
}

// TestTable checks /v1/table renders a harness table through the shared
// engine, and rejects figure ids.
func TestTable(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	rec := postJSON(t, s.Handler(), "/v1/table", `{"id":"case-n3"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp TableResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != "T2" || !strings.Contains(resp.Text, "0.622") {
		t.Errorf("unexpected table response: id=%s text=%q", resp.ID, resp.Text)
	}

	rec = postJSON(t, s.Handler(), "/v1/table", `{"id":"F1"}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("figure id status = %d, want 400", rec.Code)
	}
	rec = postJSON(t, s.Handler(), "/v1/table", `{"id":"T99"}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown id status = %d, want 400", rec.Code)
	}
}

// TestReadyz checks the readiness probe flips to 200 once the warmup
// canary completes.
func TestReadyz(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	deadline := time.Now().Add(5 * time.Second)
	for !s.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "ready\n" {
		t.Errorf("readyz = %d %q, want 200 %q", rec.Code, rec.Body.String(), "ready\n")
	}
}

// TestRequestIDs checks every response carries a distinct X-Request-Id.
func TestRequestIDs(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		id := rec.Header().Get("X-Request-Id")
		if id == "" {
			t.Fatal("missing X-Request-Id")
		}
		if seen[id] {
			t.Fatalf("duplicate request id %s", id)
		}
		seen[id] = true
	}
}

// TestMetricsEndpoint drives traffic and checks /metrics exposes the
// acceptance-criteria families in valid Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	postJSON(t, s.Handler(), "/v1/eval", `{"n":3,"delta":1,"kind":"threshold","param":0.37,"backend":"exact"}`)
	postJSON(t, s.Handler(), "/v1/eval", `{"n":3,"delta":1,"kind":"threshold","param":0.37,"backend":"exact"}`)
	postJSON(t, s.Handler(), "/v1/eval", `{"bad`)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# HELP http_requests_total HTTP requests served, all endpoints.",
		"# TYPE http_requests_total counter",
		"http_requests_total 3",
		"http_requests_eval_2xx 2",
		"http_requests_eval_4xx 1",
		"# TYPE http_latency_eval histogram",
		`http_latency_eval_bucket{le="+Inf"} 3`,
		"http_latency_eval_count 3",
		"http_inflight 0",
		"engine_cache_hits 1",
		"engine_cache_misses",
		"runtime_goroutines",
		"runtime_heap_alloc_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestSpanTree checks the full request trace: one request produces a
// http.eval → engine.evaluate → backend.exact span tree under a single
// request id, plus one access event, and the whole log replays through
// obs.Summarize (the `nocomm metrics` path) without error.
func TestSpanTree(t *testing.T) {
	s, _, buf := newTestServer(t, Config{})
	rec := postJSON(t, s.Handler(), "/v1/eval", `{"n":3,"delta":1,"kind":"threshold","param":0.37,"backend":"exact"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	reqID := rec.Header().Get("X-Request-Id")

	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	starts := map[string]obs.Event{}
	var access *obs.Event
	for i, ev := range events {
		switch ev.Type {
		case obs.EventSpanStart:
			starts[ev.Name] = ev
		case obs.EventAccess:
			access = &events[i]
		}
	}
	root, ok := starts["http.eval"]
	if !ok {
		t.Fatal("no http.eval span")
	}
	eng, ok := starts["engine.evaluate"]
	if !ok {
		t.Fatal("no engine.evaluate span")
	}
	backend, ok := starts["backend.exact"]
	if !ok {
		t.Fatal("no backend.exact span")
	}
	if eng.Parent != root.Span {
		t.Errorf("engine.evaluate parent = %d, want http.eval span %d", eng.Parent, root.Span)
	}
	if backend.Parent != eng.Span {
		t.Errorf("backend.exact parent = %d, want engine.evaluate span %d", backend.Parent, eng.Span)
	}
	if access == nil {
		t.Fatal("no access event")
	}
	if access.Fields["id"] != reqID {
		t.Errorf("access event id = %q, want %q", access.Fields["id"], reqID)
	}
	if access.Attrs["status"] != 200 {
		t.Errorf("access status = %v, want 200", access.Attrs["status"])
	}
	var endFields map[string]string
	for _, ev := range events {
		if ev.Type == obs.EventSpanEnd && ev.Name == "http.eval" {
			endFields = ev.Fields
		}
	}
	if endFields["request_id"] != reqID {
		t.Errorf("http.eval span_end request_id = %q, want %q", endFields["request_id"], reqID)
	}

	if sum := obs.Summarize(events); sum == nil || len(sum.Spans) == 0 {
		t.Error("replay through Summarize produced no span summary")
	}
}

// slowExact is an exact-evaluable rule whose oracle blocks until
// released, driving the degradation path deterministically.
type slowExact struct {
	release chan struct{}
}

func (r *slowExact) Name() string        { return "slow" }
func (r *slowExact) Fingerprint() string { return "serve-slow-exact" }
func (r *slowExact) System(inst engine.Instance) (*model.System, error) {
	// Degraded fallbacks simulate through the rule's system: play the
	// β=0.5 threshold game so the Monte-Carlo estimate is meaningful.
	return engine.SymmetricThreshold{Beta: 0.5}.System(inst)
}
func (r *slowExact) ExactWinProbabilityOpts(engine.Instance, int, *obs.Observer) (float64, error) {
	<-r.release
	return 0.25, nil
}

// TestDegradation checks the deadline fallback: an exact evaluation that
// misses its budget is answered by a sampled estimate — quasi-Monte-Carlo
// first, since its replicate error is tighter at the degraded budget —
// the serve.degraded counter bumps, and the request span carries
// degraded=1.
func TestDegradation(t *testing.T) {
	s, o, buf := newTestServer(t, Config{DegradedTrials: 5000})
	rule := &slowExact{release: make(chan struct{})}
	defer close(rule.release)
	inst, err := problem.New(3, 1)
	if err != nil {
		t.Fatal(err)
	}

	sp, ctx := o.StartSpanCtx(context.Background(), "http.eval")
	simCfg := sim.Config{Trials: 5000, Seed: 1, Obs: o}
	res, degraded, err := s.evaluateOne(ctx, inst, rule, engine.Exact, simCfg, 20*time.Millisecond)
	sp.End()
	if err != nil {
		t.Fatalf("degraded evaluation failed: %v", err)
	}
	if !degraded {
		t.Fatal("evaluation should have degraded")
	}
	if res.Backend != engine.MonteCarloQMC || res.Sim == nil {
		t.Errorf("degraded result should be quasi-Monte-Carlo: %+v", res)
	}
	if res.Sim != nil && res.Sim.Replicates == 0 {
		t.Errorf("degraded QMC result reports no replicates: %+v", res.Sim)
	}
	if res.P <= 0.4 || res.P >= 0.7 {
		t.Errorf("degraded P = %v implausible for β=0.5, n=3, δ=1", res.P)
	}
	if got := o.Counter("serve.degraded").Value(); got != 1 {
		t.Errorf("serve.degraded = %d, want 1", got)
	}
	if got := o.Counter("engine.evals.abandoned").Value(); got != 1 {
		t.Errorf("engine.evals.abandoned = %d, want 1", got)
	}

	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var sawDegraded bool
	for _, ev := range events {
		if ev.Type == obs.EventSpanEnd && ev.Name == "http.eval" && ev.Attrs["degraded"] == 1 {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Error("http.eval span_end missing degraded=1 attribute")
	}
}

// slowExactSimulator is slowExact for a rule that also carries a bespoke
// simulator: mc-qmc refuses such rules, so its degraded request must fall
// through to the plain Monte-Carlo estimator.
type slowExactSimulator struct{ slowExact }

func (r *slowExactSimulator) Simulate(inst engine.Instance, cfg sim.Config) (sim.Result, error) {
	sys, err := r.System(inst)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.WinProbability(sys, cfg)
}

// TestDegradationFallsBackToMC: when the preferred mc-qmc degraded path
// is unavailable (Simulator-only rule), degradation still answers with a
// plain Monte-Carlo estimate.
func TestDegradationFallsBackToMC(t *testing.T) {
	s, o, _ := newTestServer(t, Config{DegradedTrials: 5000})
	rule := &slowExactSimulator{slowExact{release: make(chan struct{})}}
	defer close(rule.release)
	inst, err := problem.New(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, degraded, err := s.evaluateOne(context.Background(), inst, rule, engine.Exact,
		sim.Config{Trials: 5000, Seed: 1, Obs: o}, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("degraded evaluation failed: %v", err)
	}
	if !degraded {
		t.Fatal("evaluation should have degraded")
	}
	if res.Backend != engine.MonteCarlo || res.Sim == nil {
		t.Errorf("degraded result should be plain Monte-Carlo: %+v", res)
	}
	if res.P <= 0.4 || res.P >= 0.7 {
		t.Errorf("degraded P = %v implausible for β=0.5, n=3, δ=1", res.P)
	}
}

// TestMonteCarloNoDegrade checks that a request already on the mc
// backend reports the deadline instead of degrading onto itself.
func TestMonteCarloNoDegrade(t *testing.T) {
	s, o, _ := newTestServer(t, Config{})
	inst, err := problem.New(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, degraded, err := s.evaluateOne(ctx, inst, engine.SymmetricThreshold{Beta: 0.5}, engine.MonteCarlo, sim.Config{Trials: 1000, Seed: 1}, time.Millisecond)
	if err == nil || degraded {
		t.Errorf("cancelled mc evaluation: err=%v degraded=%v, want error and no degradation", err, degraded)
	}
	if got := o.Counter("serve.degraded").Value(); got != 0 {
		t.Errorf("serve.degraded = %d, want 0", got)
	}
}

// TestPprofGate checks the profiler mount is opt-in.
func TestPprofGate(t *testing.T) {
	off, _, _ := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	off.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("pprof without flag: status = %d, want 404", rec.Code)
	}

	on, _, _ := newTestServer(t, Config{EnablePprof: true})
	rec = httptest.NewRecorder()
	on.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof with flag: status = %d, want 200", rec.Code)
	}
}
