package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// server is one in-process `nocomm serve`: the same observer, store,
// engine and serve.Config defaults the CLI wires up, behind a loopback
// listener.
type server struct {
	o     *obs.Observer
	st    store.Store
	eng   *engine.Engine
	srv   *serve.Server
	ts    *httptest.Server
	http  *http.Client
	stopC func()
}

// startServer builds a server like `nocomm serve [-cache-dir dir]` does
// (an obs registry without a JSONL sink, the runtime collector, default
// deadline and limits) and waits for its warmup canary, so the caller gets
// a ready server.
func startServer(dir string) (*server, error) {
	o := obs.New(obs.NewRegistry(), nil)
	st, err := store.New(store.Options{Dir: dir, Obs: o})
	if err != nil {
		return nil, err
	}
	s := &server{o: o, st: st, eng: engine.New(engine.Config{Obs: o, Store: st})}
	s.stopC = obs.StartRuntimeCollector(o, 10*time.Second)
	s.srv = serve.New(serve.Config{
		Obs:            o,
		Engine:         s.eng,
		Trials:         engine.DefaultTrials,
		DegradedTrials: serve.DefaultDegradedTrials,
		Deadline:       serve.DefaultDeadline,
		MaxN:           serve.DefaultMaxN,
	})
	s.ts = httptest.NewServer(s.srv.Handler())
	s.http = s.ts.Client()
	// Sleep rather than spin while the canary runs, so that waiting costs
	// no CPU time: set-ups are measured in CPU time, and a spin would grow
	// with however long the canary waited for a CPU on a busy host.
	for deadline := time.Now().Add(30 * time.Second); !s.srv.Ready(); time.Sleep(20 * time.Microsecond) {
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("server not ready after 30s")
		}
	}
	return s, nil
}

// close shuts the listener (waiting for in-flight requests) and stops the
// runtime collector.
func (s *server) close() {
	s.ts.Close()
	s.stopC()
	s.st.Close()
}

// counter reads one counter of the server's registry.
func (s *server) counter(name string) int64 { return s.o.Counter(name).Value() }

// post sends body to path and reads the whole reply into buf.
func (s *server) post(path string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := s.http.Post(s.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// stream sends a streamed sweep and returns the NDJSON lines, plus the
// time from send to the first chunk line (the line after the header).
func (s *server) stream(path string, body []byte) (status int, lines [][]byte, firstChunk time.Duration, err error) {
	start := time.Now()
	resp, err := s.http.Post(s.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 {
			if len(lines) == 1 {
				firstChunk = time.Since(start)
			}
			lines = append(lines, line)
		}
		if rerr == io.EOF {
			return resp.StatusCode, lines, firstChunk, nil
		}
		if rerr != nil {
			return resp.StatusCode, lines, firstChunk, rerr
		}
	}
}

// closedLoop runs clients goroutines until the deadline, each sending its
// next request only after the previous reply arrived (callers that wait
// for each answer, as scripts and notebooks do). op returns the latency
// in seconds and whether the request succeeded. Each client's latencies
// are returned, to be merged once the measured phase is over, with the
// failure count. Every refInterval the clients finish their requests and
// pause runs before they go on, so the reference job runs while they wait.
func closedLoop(clients int, deadline time.Time, keepAll bool, pause func(), op func(client int) (float64, bool)) ([]samples, int) {
	lats := make([]samples, clients)
	fails := make([]int, clients)
	for c := range lats {
		lats[c] = newSamples(keepAll, uint64(c+1))
	}
	for start := time.Now(); start.Before(deadline); start = time.Now() {
		end := start.Add(refInterval)
		if end.After(deadline) {
			end = deadline
		}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Now().Before(end) {
					l, ok := op(c)
					lats[c].add(l)
					if !ok {
						fails[c]++
					}
				}
			}(c)
		}
		wg.Wait()
		pause()
	}
	failed := 0
	for _, f := range fails {
		failed += f
	}
	return lats, failed
}

// merge pools per-client latencies.
func merge(ss []samples) samples {
	var all samples
	for _, s := range ss {
		all.n += s.n
		all.v = append(all.v, s.v...)
	}
	return all
}

// untilNearest runs cycle repeatedly and stops at the cycle boundary
// nearest to the deadline (at least one cycle), so workloads made of long
// cycles measure whole cycles — an exact request mix — for about the
// requested time. The reference job may run between cycles.
func (o *outcome) untilNearest(deadline time.Time, cycle func() error) error {
	for {
		start := time.Now()
		if err := cycle(); err != nil {
			return err
		}
		o.tick()
		if time.Now().Add(time.Since(start) / 2).After(deadline) {
			return nil
		}
	}
}

// heapSampler records the live heap — the bytes a garbage collection found
// reachable — after every collection while it runs. Unlike the
// allocated-heap size, which swings between collections, the live heap
// does not depend on where in a collection cycle it is read; and reading
// it after each collection, rather than on a timer, sees every cycle
// instead of whichever ones a timer happened to follow.
type heapSampler struct {
	mu      sync.Mutex
	stopped bool
	live    []float64 // bytes, one per collection
	s       []metrics.Sample
}

// gcSentinel is an unreachable object whose finalizer runs once per
// collection: each run re-arms it for the next.
type gcSentinel struct{ _ [16]byte }

func startHeapSampler() *heapSampler {
	h := &heapSampler{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	var after func(*gcSentinel)
	after = func(g *gcSentinel) {
		if h.read() {
			runtime.SetFinalizer(g, after)
		}
	}
	runtime.SetFinalizer(&gcSentinel{}, after)
	return h
}

// read records the live heap of the last collection and reports whether
// the sampler is still running.
func (h *heapSampler) read() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stopped {
		return false
	}
	h.record()
	return true
}

func (h *heapSampler) record() {
	metrics.Read(h.s)
	h.live = append(h.live, float64(h.s[0].Value.Uint64()))
}

// heapQuantile is the quantile of the per-collection live heap that
// heap_p90_mb reports. The maximum is set by whichever collection happened
// to run while a large transient table was reachable, and moved by a fifth
// between runs of the same work; the 90th percentile still reflects the
// large phases and repeats within about 2%.
const heapQuantile = 0.9

// stop ends sampling and returns the heapQuantile of the live heap over
// the collections seen, in bytes (the current live heap when none ran).
func (h *heapSampler) stop() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.live) == 0 {
		h.record()
	}
	h.stopped = true
	return quantile(sortedCopy(h.live), heapQuantile)
}

// allocCounters reads the cumulative heap allocation counters.
func allocCounters() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
