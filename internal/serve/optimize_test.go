package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestOptimizeCanonicalGolden pins the canonical scalar optimization —
// recovering the n=3, δ=1 optimum β* through the engine-native search —
// byte-for-byte, so the /v1/optimize response encoding cannot drift
// silently.
func TestOptimizeCanonicalGolden(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	// Wait for the warmup canary: it evaluates β=0.5 on this very
	// instance, which is also a grid probe of the search below, so the
	// pinned cache_hits count is deterministic only once warmup is done.
	for !s.Ready() {
		time.Sleep(100 * time.Microsecond)
	}
	rec := postJSON(t, s.Handler(), "/v1/optimize",
		`{"n":3,"delta":1,"kind":"threshold","backend":"exact"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	checkGolden(t, "optimize_canonical.golden", rec.Body.Bytes())

	var resp OptimizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if math.Abs(resp.Param-0.6220355269907728) > 1e-9 {
		t.Errorf("param = %v, want pinned optimum β* ≈ 0.6220355269907728", resp.Param)
	}
	if math.Abs(resp.P-0.5446311396758939) > 1e-9 {
		t.Errorf("P = %v, want pinned optimum P* ≈ 0.5446311396758939", resp.P)
	}
	if len(resp.Params) != 1 || resp.Params[0] != resp.Param {
		t.Errorf("params = %v should mirror param = %v", resp.Params, resp.Param)
	}
	if resp.Backend != "exact" || resp.Evals == 0 || resp.Degraded {
		t.Errorf("unexpected response flags: %+v", resp)
	}
}

// TestOptimizeVector checks the full a-vector search over HTTP: the
// heterogeneous π=(1/2,1,1) instance departs the symmetric ray, and a
// repeated request is served from the engine's memoization cache (the
// optimize.evals / optimize.cache_hits counters are the acceptance
// criterion for the cached search path).
func TestOptimizeVector(t *testing.T) {
	s, o, _ := newTestServer(t, Config{})
	body := `{"pi":[0.5,1,1],"delta":1,"kind":"vector","backend":"exact"}`

	rec := postJSON(t, s.Handler(), "/v1/optimize", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp OptimizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Params) != 3 {
		t.Fatalf("params = %v, want a 3-vector", resp.Params)
	}
	if resp.Param != 0 {
		t.Errorf("param mirror = %v should be omitted for vector results", resp.Param)
	}
	if math.Abs(resp.P-0.7247002) > 1e-4 {
		t.Errorf("P = %v, want ≈ 0.724700 for π=(1/2,1,1)", resp.P)
	}
	// The optimum leaves the symmetric ray: thresholds are not all equal.
	spread := 0.0
	for _, a := range resp.Params {
		spread = math.Max(spread, math.Abs(a-resp.Params[0]))
	}
	if spread < 0.01 {
		t.Errorf("a* = %v should depart the symmetric ray", resp.Params)
	}
	if o.Counter("optimize.evals").Value() == 0 {
		t.Error("optimize.evals counter did not move")
	}

	// Second identical request: every probe is a cache hit.
	rec = postJSON(t, s.Handler(), "/v1/optimize", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm status = %d", rec.Code)
	}
	var warm OptimizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &warm); err != nil {
		t.Fatal(err)
	}
	if warm.P != resp.P {
		t.Errorf("warm P = %v differs from cold %v", warm.P, resp.P)
	}
	if warm.CacheHits != warm.Evals || warm.CacheHits == 0 {
		t.Errorf("warm run: cache_hits = %d of %d evals, want all cached", warm.CacheHits, warm.Evals)
	}
	if o.Counter("optimize.cache_hits").Value() == 0 {
		t.Error("optimize.cache_hits counter did not move")
	}
	if o.Counter("engine.cache.hits").Value() == 0 {
		t.Error("engine.cache.hits counter did not move")
	}
}

// TestOptimizeDeltaUpdates checks that the search-cost surface includes
// the reusable evaluator's line-profile probe count: a homogeneous vector search
// routes probes through the per-search evaluator and reports
// delta_updates > 0, while a search outside the table-reuse gate (the
// heterogeneous instance) omits the field entirely.
func TestOptimizeDeltaUpdates(t *testing.T) {
	s, o, _ := newTestServer(t, Config{})
	rec := postJSON(t, s.Handler(), "/v1/optimize",
		`{"n":3,"delta":1,"kind":"vector","backend":"exact"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"delta_updates":`) {
		t.Errorf("response should surface delta_updates: %s", rec.Body.String())
	}
	var resp OptimizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.DeltaUpdates == 0 {
		t.Error("homogeneous vector search reported no delta updates")
	}
	if got := o.Counter("exact.delta.updates").Value(); got != int64(resp.DeltaUpdates) {
		t.Errorf("exact.delta.updates counter %d != reported delta_updates %d", got, resp.DeltaUpdates)
	}

	rec = postJSON(t, s.Handler(), "/v1/optimize",
		`{"pi":[0.5,1,1],"delta":1,"kind":"vector","backend":"exact"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("hetero status = %d", rec.Code)
	}
	if strings.Contains(rec.Body.String(), `"delta_updates"`) {
		t.Errorf("heterogeneous search should omit delta_updates: %s", rec.Body.String())
	}
}

// TestOptimizeSpanTree checks the optimization trace: one request
// produces http.optimize → engine.optimize → engine.evaluate →
// backend.exact under a single request id.
func TestOptimizeSpanTree(t *testing.T) {
	s, _, buf := newTestServer(t, Config{})
	rec := postJSON(t, s.Handler(), "/v1/optimize",
		`{"n":3,"delta":1,"kind":"threshold","backend":"exact"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}

	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	starts := map[string]obs.Event{}
	for _, ev := range events {
		if ev.Type == obs.EventSpanStart {
			if _, seen := starts[ev.Name]; !seen {
				starts[ev.Name] = ev
			}
		}
	}
	root, ok := starts["http.optimize"]
	if !ok {
		t.Fatal("no http.optimize span")
	}
	optSpan, ok := starts["engine.optimize"]
	if !ok {
		t.Fatal("no engine.optimize span")
	}
	eng, ok := starts["engine.evaluate"]
	if !ok {
		t.Fatal("no engine.evaluate span")
	}
	backend, ok := starts["backend.exact"]
	if !ok {
		t.Fatal("no backend.exact span")
	}
	if optSpan.Parent != root.Span {
		t.Errorf("engine.optimize parent = %d, want http.optimize span %d", optSpan.Parent, root.Span)
	}
	if eng.Parent != optSpan.Span {
		t.Errorf("engine.evaluate parent = %d, want engine.optimize span %d", eng.Parent, optSpan.Span)
	}
	if backend.Parent != eng.Span {
		t.Errorf("backend.exact parent = %d, want engine.evaluate span %d", backend.Parent, eng.Span)
	}
}

// TestOptimizeDegradation checks the deadline contract over HTTP: a
// request whose context dies mid-search still answers 200 with the
// best-so-far point, flags degraded, and bumps serve.degraded.
func TestOptimizeDegradation(t *testing.T) {
	s, o, _ := newTestServer(t, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Cancel once a handful of probes have landed: the vector search
		// needs hundreds, so the cut lands mid-search with a finite
		// best-so-far already recorded.
		for o.Counter("optimize.evals").Value() < 5 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()

	// Monte-Carlo probes are slow enough (≫ the poll interval) that the
	// cancellation always lands while the search is still probing.
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize",
		strings.NewReader(`{"pi":[0.5,1,1],"delta":1,"kind":"vector","backend":"mc","trials":50000,"seed":7}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	<-done

	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp OptimizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Error("response should be flagged degraded")
	}
	if len(resp.Params) != 3 || math.IsInf(resp.P, -1) || resp.P <= 0 {
		t.Errorf("degraded response should carry a finite best-so-far point: %+v", resp)
	}
	if got := o.Counter("serve.degraded").Value(); got != 1 {
		t.Errorf("serve.degraded = %d, want 1", got)
	}
}

// TestOptimizeErrors walks the /v1/optimize validation fences.
func TestOptimizeErrors(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name string
		body string
		code int
	}{
		{"missing kind", `{"n":3,"delta":1}`, http.StatusBadRequest},
		{"unknown kind", `{"n":3,"delta":1,"kind":"bogus"}`, http.StatusBadRequest},
		{"interval kind unsupported", `{"n":3,"delta":1,"kind":"interval"}`, http.StatusBadRequest},
		{"missing instance", `{"kind":"threshold"}`, http.StatusBadRequest},
		{"bad backend", `{"n":3,"delta":1,"kind":"threshold","backend":"quantum"}`, http.StatusBadRequest},
		{"negative grid", `{"n":3,"delta":1,"kind":"threshold","grid_points":-1}`, http.StatusBadRequest},
		{"huge grid", `{"n":3,"delta":1,"kind":"threshold","grid_points":1000000}`, http.StatusBadRequest},
		{"negative passes", `{"n":3,"delta":1,"kind":"vector","passes":-1}`, http.StatusBadRequest},
		{"negative tol", `{"n":3,"delta":1,"kind":"threshold","tol":-1}`, http.StatusBadRequest},
		{"get method", ``, http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var rec *httptest.ResponseRecorder
			if c.name == "get method" {
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/optimize", nil))
			} else {
				rec = postJSON(t, h, "/v1/optimize", c.body)
			}
			if rec.Code != c.code {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, c.code, rec.Body.String())
			}
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("error body is not the stable shape: %v", err)
			}
			if eb.Error.Code == "" || eb.Error.Message == "" {
				t.Fatalf("error body missing code/message: %q", rec.Body.String())
			}
		})
	}
}
