package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// flushRecorder counts handler flushes, proving the stream pushes each
// chunk onto the wire instead of buffering the whole grid.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

// decodeStream splits an NDJSON sweep body into its header, chunk lines
// and optional trailing error line.
func decodeStream(t *testing.T, body []byte) (SweepStreamHeader, []SweepStreamChunk, *errorBody) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	var header SweepStreamHeader
	var chunks []SweepStreamChunk
	var failure *errorBody
	for i := 0; sc.Scan(); i++ {
		line := sc.Bytes()
		if i == 0 {
			if err := json.Unmarshal(line, &header); err != nil {
				t.Fatalf("header line: %v", err)
			}
			continue
		}
		if bytes.Contains(line, []byte(`"error"`)) {
			failure = &errorBody{}
			if err := json.Unmarshal(line, failure); err != nil {
				t.Fatalf("error line: %v", err)
			}
			continue
		}
		var c SweepStreamChunk
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatalf("chunk line %d: %v", i, err)
		}
		chunks = append(chunks, c)
	}
	return header, chunks, failure
}

// TestSweepStream checks the NDJSON branch agrees bit-for-bit with the
// buffered response: same points in the same order, chunked at the
// requested granularity, with a header announcing the grid's shape.
func TestSweepStream(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	grid := `"n":3,"delta":1,"kind":"threshold","from":0.3,"to":0.7,"points":5,"backend":"exact"`

	plain := postJSON(t, s.Handler(), "/v1/sweep", `{`+grid+`}`)
	if plain.Code != http.StatusOK {
		t.Fatalf("buffered sweep status = %d: %s", plain.Code, plain.Body)
	}
	var want SweepResponse
	if err := json.Unmarshal(plain.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(`{`+grid+`,"stream":true,"chunk_size":2}`))
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("streamed sweep status = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}

	header, chunks, failure := decodeStream(t, rec.Body.Bytes())
	if failure != nil {
		t.Fatalf("unexpected error line: %+v", failure)
	}
	if header.N != 3 || header.Points != 5 || header.Chunk != 2 || header.Kind != "threshold" {
		t.Errorf("header = %+v", header)
	}
	var got []SweepPoint
	for i, c := range chunks {
		if c.Start != len(got) {
			t.Errorf("chunk %d starts at %d, want %d", i, c.Start, len(got))
		}
		got = append(got, c.Points...)
	}
	if len(chunks) != 3 {
		t.Errorf("streamed %d chunks, want 3", len(chunks))
	}
	if len(got) != len(want.Points) {
		t.Fatalf("streamed %d points, want %d", len(got), len(want.Points))
	}
	for i := range got {
		if got[i].Param != want.Points[i].Param || got[i].P != want.Points[i].P || got[i].Backend != want.Points[i].Backend {
			t.Errorf("point %d: streamed %+v, buffered %+v", i, got[i], want.Points[i])
		}
	}
	// Header + one flush per chunk: the client sees results incrementally.
	if rec.flushes < 1+len(chunks) {
		t.Errorf("flushed %d times, want >= %d (header + every chunk)", rec.flushes, 1+len(chunks))
	}
}

// TestSweepStream10k is the acceptance-scale run: a 10k-point grid
// streams chunk by chunk — the first chunk line is flushed onto the wire
// while later shards are still evaluating, and the whole grid arrives.
func TestSweepStream10k(t *testing.T) {
	s, _, _ := newTestServer(t, Config{MaxPoints: 10_000})
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(
		`{"n":3,"delta":1,"kind":"threshold","from":0.01,"to":0.99,"points":10000,"backend":"exact","stream":true}`))
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	header, chunks, failure := decodeStream(t, rec.Body.Bytes())
	if failure != nil {
		t.Fatalf("unexpected error line: %+v", failure)
	}
	if header.Points != 10_000 || header.Chunk != DefaultSweepChunk {
		t.Errorf("header = %+v", header)
	}
	total := 0
	for _, c := range chunks {
		total += len(c.Points)
	}
	if total != 10_000 {
		t.Errorf("streamed %d points, want 10000", total)
	}
	wantChunks := (10_000 + DefaultSweepChunk - 1) / DefaultSweepChunk
	if len(chunks) != wantChunks {
		t.Errorf("streamed %d chunks, want %d", len(chunks), wantChunks)
	}
	// Every chunk was flushed individually: the first chunk reached the
	// wire ~wantChunks flushes before the sweep finished.
	if rec.flushes < 1+wantChunks {
		t.Errorf("flushed %d times, want >= %d", rec.flushes, 1+wantChunks)
	}
}

// TestSweepStreamDeadline checks the mid-stream failure contract: once
// the header is on the wire a deadline cannot change the status, so the
// stream ends with an {"error": ...} line naming deadline_exceeded.
func TestSweepStreamDeadline(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	body := `{"n":3,"delta":1,"kind":"threshold","from":0.1,"to":0.9,"points":64,"backend":"mc","trials":5000000,"deadline_ms":1,"stream":true,"chunk_size":8}`
	rec := postJSON(t, s.Handler(), "/v1/sweep", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (the header commits the stream to 200)", rec.Code)
	}
	header, chunks, failure := decodeStream(t, rec.Body.Bytes())
	if failure == nil {
		t.Fatal("expected a trailing error line")
	}
	if failure.Error.Code != "deadline_exceeded" {
		t.Errorf("error code = %q, want deadline_exceeded", failure.Error.Code)
	}
	if got := len(chunks) * header.Chunk; got >= header.Points {
		t.Errorf("stream delivered all %d points despite the deadline", header.Points)
	}
}

// TestSweepStreamChunkEncoderAllocs is the retention guard on the
// steady-state chunk path: encoding chunk after chunk must reuse the
// point buffer, not accumulate the grid. A leak of the engine's reused
// results slice (or an append to a whole-response slice) shows up here
// as per-run allocation growth.
func TestSweepStreamChunkEncoderAllocs(t *testing.T) {
	const chunk = 256
	params := make([]float64, chunk)
	results := make([]engine.Result, chunk)
	for i := range params {
		params[i] = float64(i) / chunk
		results[i] = engine.Result{P: 0.5, Backend: engine.Exact, Cached: true}
	}
	enc := newSweepChunkEncoder(io.Discard, nil, params, chunk)
	if err := enc.emit(0, results); err != nil { // warm the encoder's buffers
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := enc.emit(0, results); err != nil {
			t.Fatal(err)
		}
	})
	// json.Encoder costs a handful of allocations per Encode call; the
	// bound has headroom for that but not for anything per-point.
	if avg > 8 {
		t.Errorf("steady-state chunk emit allocates %.1f per chunk of %d points; the buffer is not being reused", avg, chunk)
	}
}

// TestServeWarmRestart is the serving half of the tentpole contract: a
// server restarted on the same cache directory answers a previously
// computed exact evaluation from disk — cached=true, zero exact backend
// runs — and /readyz reports the inherited disk tier.
func TestServeWarmRestart(t *testing.T) {
	dir := t.TempDir()
	body := `{"n":3,"delta":1,"kind":"threshold","param":0.6220355269907728,"backend":"exact"}`

	s1, _ := newServerWithCacheDir(t, dir)
	cold := postJSON(t, s1.Handler(), "/v1/eval", body)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold eval status = %d: %s", cold.Code, cold.Body)
	}
	var coldResp EvalResponse
	if err := json.Unmarshal(cold.Body.Bytes(), &coldResp); err != nil {
		t.Fatal(err)
	}
	if coldResp.Cached {
		t.Error("cold evaluation claims to be cached")
	}

	// "Restart": a new server process over the same directory.
	s2, reg := restartServerOnCacheDir(t, dir)
	warm := postJSON(t, s2.Handler(), "/v1/eval", body)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm eval status = %d: %s", warm.Code, warm.Body)
	}
	var warmResp EvalResponse
	if err := json.Unmarshal(warm.Body.Bytes(), &warmResp); err != nil {
		t.Fatal(err)
	}
	if !warmResp.Cached {
		t.Error("warm-restart evaluation not served as cached")
	}
	if warmResp.P != coldResp.P {
		t.Errorf("P changed across restart: %v vs %v", warmResp.P, coldResp.P)
	}
	if got := reg.Counter("engine.evals.exact").Value(); got != 0 {
		t.Errorf("engine.evals.exact = %d after warm restart, want 0 (warmup canary included)", got)
	}

	rec := httptest.NewRecorder()
	s2.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	readyz := rec.Body.String()
	if !strings.HasPrefix(readyz, "ready\n") {
		t.Fatalf("readyz = %q", readyz)
	}
	for _, want := range []string{"store.disk.dir ", "store.disk.entries 2", "store.disk.hits "} {
		if !strings.Contains(readyz, want) {
			t.Errorf("readyz missing %q:\n%s", want, readyz)
		}
	}
}

// newServerWithCacheDir builds a ready server whose engine sits on a
// disk-tiered store in dir.
func newServerWithCacheDir(t *testing.T, dir string) (*Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	o := obs.New(reg, nil)
	st, err := store.New(store.Options{Dir: dir, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Obs: o, Engine: engine.New(engine.Config{Obs: o, Store: st})})
	waitReady(t, s)
	return s, reg
}

// restartServerOnCacheDir is newServerWithCacheDir under a name that
// says what the second call in a test means.
func restartServerOnCacheDir(t *testing.T, dir string) (*Server, *obs.Registry) {
	return newServerWithCacheDir(t, dir)
}

func waitReady(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(time.Millisecond)
	}
}
