package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

// optimizeCounts accumulates the search statistics /v1/optimize replies
// carry, per kind (vector or scalar).
type optimizeCounts struct {
	reqs                                int
	evals, hits, deltaUpdates, iterates float64
}

func (c *optimizeCounts) add(r serve.OptimizeResponse) {
	c.reqs++
	c.evals += float64(r.Evals)
	c.hits += float64(r.CacheHits)
	c.deltaUpdates += float64(r.DeltaUpdates)
	c.iterates += float64(r.Iterations)
}

func (c *optimizeCounts) metrics(m map[string]float64, kind string) {
	if c.reqs == 0 {
		return
	}
	n := float64(c.reqs)
	m["optimize."+kind+".evals_per_req"] = c.evals / n
	m["optimize."+kind+".cache_hits_per_req"] = c.hits / n
	m["optimize."+kind+".delta_updates_per_req"] = c.deltaUpdates / n
	m["optimize."+kind+".iterations_per_req"] = c.iterates / n
}

// apiRun executes optimize-sweep requests against one server and checks
// each answer: no degradation, vector optimum ≥ the threshold optimum on
// the same instance, and every promised sweep point delivered.
type apiRun struct {
	s              *server
	o              *outcome
	log            bool    // keep sent
	sent           []apiOp // every request when logging, aligned with o.lat
	vector, scalar optimizeCounts
	firstChunk     []float64            // seconds from send to the first chunk line
	byClass        map[string][]float64 // latencies by request class, seconds
}

// cycle sends one cycle of requests.
func (r *apiRun) cycle(ops []apiOp) {
	best := make([]float64, len(ops))
	var buf bytes.Buffer
	for i, op := range ops {
		r.o.tick()
		r.o.ops++
		if r.log {
			r.sent = append(r.sent, op)
		}
		start := time.Now()
		record := func() {
			lat := time.Since(start).Seconds()
			r.o.lat.add(lat)
			r.byClass[op.class] = append(r.byClass[op.class], lat)
		}
		if op.sweep != nil {
			status, lines, first, err := r.s.stream(op.path, op.body)
			record()
			if err != nil || status != http.StatusOK {
				r.o.fail("%s: status %d err %v", op.class, status, err)
				continue
			}
			r.firstChunk = append(r.firstChunk, first.Seconds())
			if err := checkStream(lines); err != nil {
				r.o.fail("%s: %v", op.class, err)
			}
			continue
		}
		status, err := r.s.post(op.path, op.body, &buf)
		record()
		var resp serve.OptimizeResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(buf.Bytes(), &resp)
		}
		if err != nil || status != http.StatusOK || resp.Degraded {
			r.o.fail("%s: status %d err %v: %s", op.class, status, err, bytes.TrimSpace(buf.Bytes()))
			continue
		}
		best[i] = resp.P
		if op.opt.Kind == "vector" {
			r.vector.add(resp)
		} else {
			r.scalar.add(resp)
		}
		if op.pair >= 0 {
			r.o.check(resp.P >= best[op.pair]-1e-12, "%s: vector optimum %v below the threshold optimum %v", op.class, resp.P, best[op.pair])
		}
	}
}

// checkStream verifies a streamed sweep: a header, then chunk lines whose
// points add up to the header's count, and no error line.
func checkStream(lines [][]byte) error {
	if len(lines) == 0 {
		return fmt.Errorf("empty stream")
	}
	var head serve.SweepStreamHeader
	if err := json.Unmarshal(lines[0], &head); err != nil {
		return fmt.Errorf("header: %w", err)
	}
	got := 0
	for _, l := range lines[1:] {
		var chunk struct {
			serve.SweepStreamChunk
			Error json.RawMessage `json:"error"`
		}
		if err := json.Unmarshal(l, &chunk); err != nil {
			return fmt.Errorf("chunk: %w", err)
		}
		if chunk.Error != nil {
			return fmt.Errorf("error line %s", bytes.TrimSpace(l))
		}
		got += len(chunk.Points)
	}
	if got != head.Points {
		return fmt.Errorf("stream delivered %d of %d points", got, head.Points)
	}
	return nil
}

// optimizeHeapCycles is how many optimize-sweep cycles heap_p90_mb
// covers: the server caches every probe and sweep point it computes. A
// 10-second run completes these on a machine at half the baseline's speed.
const optimizeHeapCycles = 2

// runOptimizeSweep: one closed-loop client sends whole cycles of searches
// and streamed sweeps to a fresh memory-tier server.
func runOptimizeSweep(e *env, o *outcome) error {
	var s *server
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	err := o.timeSetups(e.sz, func() error {
		if s != nil {
			s.close()
			s = nil
		}
		return nil
	}, func() error {
		var err error
		s, err = startServer("")
		return err
	})
	if err != nil {
		return err
	}
	gen := newOptimizeGen(e.seed, e.sz.optimize)
	run := &apiRun{s: s, o: o, log: e.trace, byClass: map[string][]float64{}}
	deadline := e.measured()
	cycles := 0
	err = o.measure(func() error {
		return o.untilNearest(deadline, func() error {
			if cycles++; cycles > optimizeHeapCycles {
				o.stopHeap()
			}
			run.cycle(gen.cycle())
			return nil
		})
	})
	if err != nil {
		return err
	}
	o.notes = append(o.notes, fmt.Sprintf("first chunk p50 %.1f ms over %d streamed sweeps", 1e3*median(run.firstChunk), len(run.firstChunk)))
	var classes []string
	for _, c := range sortedKeys(run.byClass) {
		classes = append(classes, fmt.Sprintf("%s %.1f", c, 1e3*median(run.byClass[c])))
	}
	o.notes = append(o.notes, "p50 ms by request class: "+strings.Join(classes, ", "))
	if !e.trace {
		return nil
	}

	// Replay the same requests on fresh memory-tier stacks: loopback,
	// handler, engine.
	var stacks [2]*server
	for i := range stacks {
		if stacks[i], err = startServer(""); err != nil {
			return err
		}
		defer stacks[i].close()
	}
	engObs := obs.New(obs.NewRegistry(), nil)
	eng := engine.New(engine.Config{Obs: engObs})
	deadline = e.deadline(0.5)
	n := 0
	for ; n < len(run.sent) && time.Now().Before(deadline); n++ {
		if err := replayAPI(e.tr, n, run.sent[n], stacks[0], stacks[1], eng, engObs, o); err != nil {
			return err
		}
	}
	o.layers = e.tr.breakdown("http", map[string][]string{"http": {"serve"}, "serve": {"engine"}}, mean(o.lat.v[:n]))
	run.vector.metrics(o.layers, "vector")
	run.scalar.metrics(o.layers, "scalar")
	if run.vector.evals+run.scalar.evals > 0 {
		o.layers["optimize.reuse_ratio"] = (run.vector.deltaUpdates + run.scalar.deltaUpdates) / (run.vector.evals + run.scalar.evals)
	}
	addRegistryRatios(o.layers, s)
	return nil
}

// replayAPI replays one optimize or sweep request at the loopback, handler
// and engine boundaries.
func replayAPI(tr *tracer, i int, op apiOp, httpS, serveS *server, eng *engine.Engine, engObs *obs.Observer, o *outcome) error {
	inst, err := op.instance()
	if err != nil {
		return err
	}
	o.ops++
	h, err := tr.span(i, "http", 0, func() error {
		var status int
		var err error
		if op.sweep != nil {
			var lines [][]byte
			status, lines, _, err = httpS.stream(op.path, op.body)
			if err == nil {
				err = checkStream(lines)
			}
		} else {
			var buf bytes.Buffer
			status, err = httpS.post(op.path, op.body, &buf)
		}
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		return err
	})
	if err != nil {
		o.fail("replay %s http: %v", op.class, err)
	}

	req := httptest.NewRequest(http.MethodPost, op.path, bytes.NewReader(op.body))
	rec := httptest.NewRecorder()
	objs0, bytes0 := allocCounters()
	sv, _ := tr.span(i, "serve", h, func() error {
		serveS.srv.Handler().ServeHTTP(rec, req)
		return nil
	})
	objs1, bytes1 := allocCounters()
	tr.add("serve.allocs", float64(objs1-objs0))
	tr.add("serve.bytes", float64(bytes1-bytes0))
	if rec.Code != http.StatusOK {
		o.fail("replay %s serve: status %d", op.class, rec.Code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), serve.DefaultDeadline)
	defer cancel()
	root, ctx := engObs.StartSpanCtx(ctx, "http.replay")
	defer root.End()
	simCfg := sim.Config{Trials: engine.DefaultTrials, Seed: 1, Obs: engObs}
	var call func() error
	if op.sweep != nil {
		pts, err := op.sweepPoints(inst)
		if err != nil {
			return err
		}
		opts := engine.SweepOptions{Backend: engine.Exact, Sim: simCfg}
		call = func() error {
			return eng.SweepChunksCtx(ctx, pts, opts, serve.DefaultSweepChunk, func(int, []engine.Result) error { return nil })
		}
	} else {
		fam, err := engine.FamilyForKind(op.opt.Kind)
		if err != nil {
			return err
		}
		opts := engine.OptimizeOptions{Backend: engine.Exact, Sim: simCfg}
		call = func() error {
			res, err := eng.OptimizeCtx(ctx, inst, fam, opts)
			if err == nil && res.Degraded {
				err = fmt.Errorf("degraded")
			}
			return err
		}
	}
	if _, err := tr.span(i, "engine", sv, call); err != nil {
		o.fail("replay %s engine: %v", op.class, err)
	}
	return nil
}
