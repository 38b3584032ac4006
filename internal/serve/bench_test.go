package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// benchServer runs a real HTTP server (httptest) over a fully
// instrumented serve stack, so the benchmarks price the whole request
// path: TCP, routing, middleware, JSON, engine, metrics.
func benchServer(b *testing.B) (*httptest.Server, *http.Client) {
	b.Helper()
	o := obs.New(obs.NewRegistry(), nil)
	s := New(Config{Obs: o, Engine: engine.New(engine.Config{Obs: o})})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return ts, ts.Client()
}

func benchPost(b *testing.B, c *http.Client, url, body string) {
	b.Helper()
	resp, err := c.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkEvalWarm serves the same exact evaluation repeatedly: after
// the first request every response is a cache hit, so this prices the
// HTTP + middleware + JSON overhead per request.
func BenchmarkEvalWarm(b *testing.B) {
	ts, c := benchServer(b)
	url := ts.URL + "/v1/eval"
	body := `{"n":3,"delta":1,"kind":"threshold","param":0.6220355269907728,"backend":"exact"}`
	benchPost(b, c, url, body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, c, url, body)
	}
}

// BenchmarkEvalCold serves a distinct exact evaluation every iteration:
// every request is a cache miss, pricing the full request + exact
// backend path (n=3 keeps the enumeration cheap enough to benchmark).
func BenchmarkEvalCold(b *testing.B) {
	ts, c := benchServer(b)
	url := ts.URL + "/v1/eval"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"n":3,"delta":1,"kind":"threshold","param":%.9f,"backend":"exact"}`, 0.1+0.8*float64(i%100000)/100000+1e-9*float64(i))
		benchPost(b, c, url, body)
	}
}

// BenchmarkOptimizeWarm serves the same scalar optimization repeatedly:
// after the first request every probe inside the search is an engine
// cache hit, so this prices the HTTP overhead plus the search driver
// walking a fully memoized objective.
func BenchmarkOptimizeWarm(b *testing.B) {
	ts, c := benchServer(b)
	url := ts.URL + "/v1/optimize"
	body := `{"n":3,"delta":1,"kind":"threshold","backend":"exact"}`
	benchPost(b, c, url, body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, c, url, body)
	}
}

// BenchmarkWarmRestartEval prices a restarted server answering a
// previously-computed exact evaluation. Every iteration builds a fresh
// server — a fresh memory tier, as after a process restart — over a cache
// directory seeded once before the loop, and serves one /v1/eval of the
// same heavy exact result (a heterogeneous n=15 instance, so a recompute
// would pay the Theorem 5.1 O(n²·2ⁿ) subset enumeration rather than the
// homogeneous closed form); every "restart" fills from the disk tier.
func BenchmarkWarmRestartEval(b *testing.B) {
	body := warmRestartBody(15)
	dir := filepath.Join(b.TempDir(), "warm")
	restartEval(b, dir, body) // seed the disk tier
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restartEval(b, dir, body)
	}
}

// warmRestartBody builds the benchmark's eval request: a heterogeneous
// π vector (distinct per-player input ranges) keeps the exact backend on
// the subset-enumeration path.
func warmRestartBody(n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"n":%d,"delta":%d,"kind":"threshold","param":0.318,"backend":"exact","pi":[`, n, n/3)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%.2f", 0.80+0.02*float64(i))
	}
	sb.WriteString("]}")
	return sb.String()
}

// restartEval builds a fresh server over the cache directory and serves
// one eval through the full handler stack (no TCP: the restart path, not
// the socket, is what this prices).
func restartEval(b *testing.B, dir, body string) {
	b.Helper()
	o := obs.New(obs.NewRegistry(), nil)
	st, err := store.New(store.Options{Dir: dir, Obs: o})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Obs: o, Engine: engine.New(engine.Config{Obs: o, Store: st})})
	req := httptest.NewRequest(http.MethodPost, "/v1/eval", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
}

// BenchmarkHealthz prices the instrumented no-work path: middleware,
// request ids, counters, histogram, access event bookkeeping.
func BenchmarkHealthz(b *testing.B) {
	ts, c := benchServer(b)
	url := ts.URL + "/healthz"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// BenchmarkMetrics prices a Prometheus scrape of a populated registry.
func BenchmarkMetrics(b *testing.B) {
	ts, c := benchServer(b)
	benchPost(b, c, ts.URL+"/v1/eval", `{"n":3,"delta":1,"kind":"threshold","param":0.5,"backend":"exact"}`)
	url := ts.URL + "/metrics"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
