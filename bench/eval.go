package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/engine"
	"repro/internal/nonoblivious"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
)

// evalReply is the part of an EvalResponse the checks read.
type evalReply struct {
	P        float64 `json:"p"`
	Backend  string  `json:"backend"`
	Cached   bool    `json:"cached"`
	Degraded bool    `json:"degraded"`
}

func parseEval(b []byte) (evalReply, error) {
	var r evalReply
	err := json.Unmarshal(b, &r)
	return r, err
}

// seedCache computes every key once through a server on dir, whose disk
// tier keeps them, and returns the exact values.
func seedCache(dir string, keys []evalOp) ([]float64, error) {
	s, err := startServer(dir)
	if err != nil {
		return nil, err
	}
	defer s.close()
	ref := make([]float64, len(keys))
	var buf bytes.Buffer
	for i, k := range keys {
		status, err := s.post("/v1/eval", k.body, &buf)
		if err != nil {
			return nil, err
		}
		r, perr := parseEval(buf.Bytes())
		if status != http.StatusOK || perr != nil || r.Degraded || r.Backend != "exact" {
			return nil, fmt.Errorf("seeding key %d: status %d: %s", i, status, bytes.TrimSpace(buf.Bytes()))
		}
		ref[i] = r.P
	}
	return ref, nil
}

// restartPass requests every key once, in the given order, from a server
// freshly started on a seeded directory, checking that each answer is the
// seeded value served from the disk tier and that no exact evaluation ran.
// replies, when non-nil, receives each reply's bytes.
func restartPass(s *server, keys []evalOp, order []int, ref []float64, o *outcome, replies [][]byte) {
	exact0, hits0 := s.counter("engine.evals.exact"), s.counter("store.disk.hits")
	var buf bytes.Buffer
	for _, k := range order {
		start := time.Now()
		status, err := s.post("/v1/eval", keys[k].body, &buf)
		o.lat.add(time.Since(start).Seconds())
		o.ops++
		if err != nil || status != http.StatusOK {
			o.fail("restart key %d: status %d err %v", k, status, err)
			continue
		}
		r, err := parseEval(buf.Bytes())
		if err != nil || !r.Cached || r.Degraded || math.Float64bits(r.P) != math.Float64bits(ref[k]) {
			o.fail("restart key %d: got %+v (err %v), want cached p=%v", k, r, err, ref[k])
		}
		if replies != nil {
			replies[k] = bytes.Clone(buf.Bytes())
		}
	}
	hits := s.counter("store.disk.hits") - hits0
	o.check(hits == int64(len(order)), "restart: store.disk.hits moved by %d, want %d", hits, len(order))
	o.check(s.counter("engine.evals.exact") == exact0, "restart: exact evaluations ran on a seeded cache")
}

// runEvalHot: seed a cache directory, restart a server on it, fill every
// key from the disk tier, then 2 closed-loop clients draw keys Zipf(1.1)
// — all memory-tier hits.
func runEvalHot(e *env, o *outcome) error {
	keys := hotKeys(e.seed, e.sz.hotKeys)
	var (
		s       *server
		dir     string
		ref     []float64
		replies [][]byte
		fill    outcome
	)
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
		var err error
		dir, err = e.dir("hot")
		return err
	}, func() error {
		var err error
		if ref, err = seedCache(dir, keys); err != nil {
			return err
		}
		if s, err = startServer(dir); err != nil {
			return err
		}
		fill = outcome{}
		replies = make([][]byte, len(keys))
		restartPass(s, keys, seq(len(keys)), ref, &fill, replies)
		return nil
	})
	if err != nil {
		return err
	}
	o.ops, o.failedOps, o.checks, o.failedChecks = fill.ops, fill.failedOps, fill.checks, fill.failedChecks
	o.failures = fill.failures
	exact0 := s.counter("engine.evals.exact")

	zipfs := make([]*rand.Zipf, 2)
	for c := range zipfs {
		zipfs[c] = rand.NewZipf(newRNG(e.seed, streamZipf+uint64(c)<<8), 1.1, 1, uint64(len(keys)-1))
	}
	var sent []evalOp // keys of a one-client phase, in order
	hot := func(clients int, deadline time.Time) ([]samples, int) {
		bufs := make([]bytes.Buffer, clients)
		return closedLoop(clients, deadline, e.trace, o.tick, func(c int) (float64, bool) {
			k := zipfs[c].Uint64()
			if e.trace && clients == 1 {
				sent = append(sent, keys[k])
			}
			start := time.Now()
			status, err := s.post("/v1/eval", keys[k].body, &bufs[c])
			lat := time.Since(start).Seconds()
			return lat, err == nil && status == http.StatusOK && bytes.Equal(bufs[c].Bytes(), replies[k])
		})
	}
	record := func(lats []samples, failed int) {
		o.lat = merge(lats)
		o.ops += o.lat.n
		o.failedOps += failed
		if failed > 0 {
			o.describe("hot: %d replies failed or differed from the seeded values", failed)
		}
	}

	var lats []samples
	var failed int
	if !e.trace {
		err = o.measure(func() error {
			lats, failed = hot(2, e.deadline(1))
			return nil
		})
		record(lats, failed)
		o.check(s.counter("engine.evals.exact") == exact0, "hot: exact evaluations ran on a warm cache")
		return err
	}

	// Traced run: the untraced reference with one client and with two,
	// then the replay on the same warm stack (every layer sees hits).
	o.measure(func() error {
		lats, failed = hot(1, e.deadline(0.25))
		return nil
	})
	record(lats, failed)
	one := o.lat
	_, elapsed := o.m.phase()
	rate1 := float64(one.n) / elapsed
	start := time.Now()
	lats, failed = hot(2, e.deadline(0.25))
	two := merge(lats)
	rate2 := float64(two.n) / time.Since(start).Seconds()
	o.ops += two.n
	o.failedOps += failed

	warm := func() (evalStacks, func(), error) {
		return evalStacks{http: s, serve: s, eng: s.eng, engObs: s.o, st: s.st}, func() {}, nil
	}
	ref0, err := replayLog(e, o, [][]evalOp{sent}, one.v, warm)
	if err != nil {
		return err
	}
	o.check(s.counter("engine.evals.exact") == exact0, "hot: exact evaluations ran on a warm cache")
	o.layers = e.tr.breakdown("http", evalInner, ref0)
	o.layers["serve.scaling_2c"] = rate2 / rate1
	addRegistryRatios(o.layers, s)
	return nil
}

// runEvalRestart: seed a cache directory, then restart a fresh server on
// it again and again, each time requesting every key once in a seeded
// order — every request is a disk-tier fill.
func runEvalRestart(e *env, o *outcome) error {
	keys := hotKeys(e.seed, e.sz.hotKeys)
	var (
		dir string
		ref []float64
	)
	err := o.timeSetups(e.sz, func() error {
		var err error
		dir, err = e.dir("restart")
		return err
	}, func() error {
		var err error
		ref, err = seedCache(dir, keys)
		return err
	})
	if err != nil {
		return err
	}
	rng := newRNG(e.seed, streamRestartOrder)
	var (
		last   *server
		cycles [][]evalOp // requests of each restart, in order, when tracing
	)
	cycle := func() error {
		order := rng.Perm(len(keys))
		s, err := startServer(dir)
		if err != nil {
			return err
		}
		defer s.close()
		restartPass(s, keys, order, ref, o, nil)
		last = s
		if e.trace {
			c := make([]evalOp, len(order))
			for i, k := range order {
				c[i] = keys[k]
			}
			cycles = append(cycles, c)
		}
		return nil
	}
	deadline := e.measured()
	if err := o.measure(func() error { return o.untilNearest(deadline, cycle) }); err != nil {
		return err
	}
	if !e.trace {
		return nil
	}

	// Replay the same restarts: every layer gets its own stack restarted
	// on the directory, so each op is a disk fill at every boundary.
	ref0, err := replayLog(e, o, cycles, o.lat.v, func() (evalStacks, func(), error) {
		return freshEvalStacks(func(string) (string, error) { return dir, nil }, false)
	})
	if err != nil {
		return err
	}
	o.layers = e.tr.breakdown("http", evalInner, ref0)
	addRegistryRatios(o.layers, last)
	return nil
}

// runEvalCold: one closed-loop client sends distinct exact evaluations —
// the pinned canonical requests, then seeded cycles of the eval-cold mix —
// to a server whose disk tier starts empty (`nocomm serve -cache-dir`).
func runEvalCold(e *env, o *outcome) error {
	var (
		s   *server
		dir string
	)
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
		var err error
		dir, err = e.dir("cold")
		return err
	}, func() error {
		var err error
		s, err = startServer(dir)
		return err
	})
	if err != nil {
		return err
	}

	gen := newColdGen(e.seed)
	type done struct {
		op evalOp
		p  float64
	}
	var answered []done
	var sent []evalOp // every request when tracing, aligned with o.lat
	pins := coldPins()
	pending := pins
	var buf bytes.Buffer
	cycles := 0
	cycle := func() error {
		ops := append(pending, gen.cycle()...)
		pending = nil
		if cycles++; cycles > coldHeapCycles {
			o.stopHeap()
		}
		for _, op := range ops {
			o.tick()
			start := time.Now()
			status, err := s.post("/v1/eval", op.body, &buf)
			o.lat.add(time.Since(start).Seconds())
			if e.trace {
				sent = append(sent, op)
			}
			o.ops++
			if err != nil || status != http.StatusOK {
				o.fail("cold: status %d err %v: %s", status, err, bytes.TrimSpace(buf.Bytes()))
				continue
			}
			r, err := parseEval(buf.Bytes())
			if err != nil || r.Cached || r.Degraded || r.Backend != "exact" {
				o.fail("cold: unexpected reply %s", bytes.TrimSpace(buf.Bytes()))
				continue
			}
			answered = append(answered, done{op, r.P})
		}
		return nil
	}
	deadline := e.measured()
	if err := o.measure(func() error { return o.untilNearest(deadline, cycle) }); err != nil {
		return err
	}

	// The pins: the paper's n=3, δ=1 optimum bit for bit, and π=(1/2,1,1)
	// against the big.Rat oracle within the certified error bound.
	if len(answered) >= 2 && bytes.Equal(answered[0].op.body, pins[0].body) && bytes.Equal(answered[1].op.body, pins[1].body) {
		o.check(answered[0].p == pinPStar, "cold: β* pin gave P = %v, want %v", answered[0].p, pinPStar)
		half := big.NewRat(1, 2)
		one := big.NewRat(1, 1)
		want, err := nonoblivious.WinningProbabilityPiRat([]*big.Rat{half, half, half}, []*big.Rat{half, one, one}, one)
		if err != nil {
			return err
		}
		wf, _ := want.Float64()
		bound := nonoblivious.ExactErrorBound(3, 1, 0.5)
		o.check(math.Abs(answered[1].p-wf) <= bound, "cold: π=(1/2,1,1) pin gave P = %v, want %v ± %v", answered[1].p, wf, bound)
	} else {
		o.check(false, "cold: pinned requests were not answered")
	}

	// A seeded sample re-evaluated on a fresh store-less engine must match
	// bit for bit.
	ref := engine.New(engine.Config{})
	rng := newRNG(e.seed, streamColdSample)
	for _, i := range rng.Perm(len(answered))[:min(e.sz.coldSample, len(answered))] {
		d := answered[i]
		inst, err := d.op.instance()
		if err != nil {
			return err
		}
		res, err := ref.Evaluate(inst, d.op.rule(), engine.Exact)
		o.check(err == nil && math.Float64bits(res.P) == math.Float64bits(d.p),
			"cold: %s served p=%v, fresh engine %v (err %v)", d.op.body, d.p, res.P, err)
	}
	if !e.trace {
		return nil
	}

	// Replay the same requests: every layer gets its own stack over an
	// empty directory, so each op is a miss with a disk write at every
	// boundary.
	var exactObs *obs.Observer
	ref0, err := replayLog(e, o, [][]evalOp{sent}, o.lat.v, func() (evalStacks, func(), error) {
		st, closeAll, err := freshEvalStacks(e.dir, true)
		exactObs = st.exact
		return st, closeAll, err
	})
	if err != nil {
		return err
	}
	o.layers = e.tr.breakdown("http", evalInner, ref0)
	addRegistryRatios(o.layers, s)
	if n := e.tr.ops["exact"]; n > 0 {
		o.layers["exact.subsets_per_req"] = float64(exactObs.Counter("exact.subsets").Value()) / float64(n)
		steps := exactObs.Counter("exact.steps.incremental").Value() + exactObs.Counter("exact.steps.rebuilt").Value()
		o.layers["exact.steps_per_req"] = float64(steps) / float64(n)
	}
	return nil
}

// coldHeapCycles is how many eval-cold cycles heap_p90_mb covers: the
// server caches every answer, so its heap grows with the requests served.
// A 10-second run completes these on a machine at half the baseline's
// speed.
const coldHeapCycles = 10

// replayBatch is how many eval ops are replayed one layer at a time.
const replayBatch = 64

// replayLog replays the ops an untraced phase sent, in order, for half the
// run or until the log ends. Each segment gets fresh stacks; lat holds the
// untraced latencies aligned with the concatenated segments. It returns the
// untraced mean latency of exactly the ops it replayed.
func replayLog(e *env, o *outcome, segments [][]evalOp, lat []float64, stacks func() (evalStacks, func(), error)) (float64, error) {
	deadline := e.deadline(0.5)
	n := 0
	for _, seg := range segments {
		if !time.Now().Before(deadline) {
			break
		}
		st, closeAll, err := stacks()
		if err != nil {
			return 0, err
		}
		for start := 0; start < len(seg) && time.Now().Before(deadline); start += replayBatch {
			batch := seg[start:min(start+replayBatch, len(seg))]
			if err := replayEval(e.tr, n, batch, st, o); err != nil {
				closeAll()
				return 0, err
			}
			n += len(batch)
		}
		closeAll()
	}
	return mean(lat[:n]), nil
}

// evalInner is the eval layer nesting: the loopback request wraps the
// handler, which wraps the engine, which calls the store and, on a miss,
// the exact kernel.
var evalInner = map[string][]string{
	"http":   {"serve"},
	"serve":  {"engine"},
	"engine": {"store", "exact"},
}

// evalStacks are the targets one eval op is replayed against, one per
// layer boundary, each in the state the op saw.
type evalStacks struct {
	http, serve *server
	eng         *engine.Engine
	engObs      *obs.Observer
	st          store.Store
	exact       *obs.Observer // non-nil when ops miss and reach the kernel
}

// freshEvalStacks builds one stack per layer, each on its own directory
// from dir (a restart shares the seeded one; cold runs get empty ones).
// miss marks ops that compute, so the exact kernel is replayed too.
func freshEvalStacks(dir func(string) (string, error), miss bool) (st evalStacks, closeAll func(), err error) {
	var closers []func()
	closeAll = func() {
		for _, c := range closers {
			c()
		}
	}
	defer func() {
		if err != nil {
			closeAll()
		}
	}()
	for _, target := range []**server{&st.http, &st.serve} {
		d, err := dir("replay")
		if err != nil {
			return st, nil, err
		}
		s, err := startServer(d)
		if err != nil {
			return st, nil, err
		}
		closers = append(closers, s.close)
		*target = s
	}
	newStore := func(o *obs.Observer) (store.Store, error) {
		d, err := dir("replay")
		if err != nil {
			return nil, err
		}
		s, err := store.New(store.Options{Dir: d, Obs: o})
		if err != nil {
			return nil, err
		}
		closers = append(closers, func() { s.Close() })
		return s, nil
	}
	st.engObs = obs.New(obs.NewRegistry(), nil)
	est, err := newStore(st.engObs)
	if err != nil {
		return st, nil, err
	}
	st.eng = engine.New(engine.Config{Obs: st.engObs, Store: est})
	if st.st, err = newStore(obs.New(obs.NewRegistry(), nil)); err != nil {
		return st, nil, err
	}
	if miss {
		st.exact = obs.New(obs.NewRegistry(), nil)
	}
	return st, closeAll, nil
}

// replayEval replays a batch of eval ops at every layer boundary of the
// stacks, one layer at a time over the batch so each layer runs with warm
// caches as it does under load. Request construction, contexts and spans
// of the program are set up outside the timed calls, so each span holds
// only the layer's own work.
func replayEval(tr *tracer, first int, ops []evalOp, st evalStacks, o *outcome) error {
	type prepared struct {
		inst           engine.Instance
		rule           engine.Rule
		key            string
		res            engine.Result
		http, serve, e int64 // span ids
	}
	ps := make([]prepared, len(ops))
	for i, op := range ops {
		inst, err := op.instance()
		if err != nil {
			return err
		}
		key, err := op.storeKey()
		if err != nil {
			return err
		}
		ps[i] = prepared{inst: inst, rule: op.rule(), key: key}
	}
	o.ops += len(ops)

	var buf bytes.Buffer
	for i, op := range ops {
		var err error
		ps[i].http, err = tr.span(first+i, "http", 0, func() error {
			status, err := st.http.post("/v1/eval", op.body, &buf)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
			return err
		})
		if err != nil {
			o.fail("replay http: %v", err)
		}
	}

	h := st.serve.srv.Handler()
	for i, op := range ops {
		req := httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(op.body))
		rec := httptest.NewRecorder()
		objs0, bytes0 := allocCounters()
		ps[i].serve, _ = tr.span(first+i, "serve", ps[i].http, func() error {
			h.ServeHTTP(rec, req)
			return nil
		})
		objs1, bytes1 := allocCounters()
		tr.add("serve.allocs", float64(objs1-objs0))
		tr.add("serve.bytes", float64(bytes1-bytes0))
		if rec.Code != http.StatusOK {
			o.fail("replay serve: status %d", rec.Code)
		}
	}

	simCfg := sim.Config{Trials: engine.DefaultTrials, Seed: 1, Obs: st.engObs}
	for i := range ps {
		p := &ps[i]
		ctx, cancel := context.WithTimeout(context.Background(), serve.DefaultDeadline)
		root, ctx := st.engObs.StartSpanCtx(ctx, "http.eval")
		var err error
		p.e, err = tr.span(first+i, "engine", p.serve, func() error {
			var err error
			p.res, err = st.eng.EvaluateWithCtx(ctx, p.inst, p.rule, engine.Exact, simCfg)
			return err
		})
		root.End()
		cancel()
		if err != nil {
			o.fail("replay engine: %v", err)
		}
	}

	for i, p := range ps {
		val := store.Value{P: p.res.P, Backend: p.res.Backend.String()}
		tr.span(first+i, "store", p.e, func() error {
			slot, _ := st.st.Acquire(p.key)
			slot.Fill(func() (store.Value, error) { return val, nil })
			return nil
		})
	}

	if st.exact == nil {
		return nil
	}
	workers, err := sim.WorkerCount(0, 64)
	if err != nil {
		return err
	}
	for i, p := range ps {
		eo, ok := p.rule.(engine.ExactOpts)
		if !ok {
			return fmt.Errorf("rule %s has no sharded exact evaluator", p.rule.Name())
		}
		var v float64
		_, err := tr.span(first+i, "exact", p.e, func() error {
			var err error
			v, err = eo.ExactWinProbabilityOpts(p.inst, workers, st.exact)
			return err
		})
		if err != nil || math.Float64bits(v) != math.Float64bits(p.res.P) {
			o.fail("replay exact: p=%v, engine %v (err %v)", v, p.res.P, err)
		}
	}
	return nil
}

// addRegistryRatios reads the cache ratios of the server that ran the
// untraced phase and the size of its disk tier's entries.
func addRegistryRatios(m map[string]float64, s *server) {
	hits, misses := s.counter("engine.cache.hits"), s.counter("engine.cache.misses")
	if hits+misses > 0 {
		m["engine.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["engine.coalesced"] = float64(s.counter("engine.cache.coalesced"))
	dh, dm := s.counter("store.disk.hits"), s.counter("store.disk.misses")
	if dh+dm > 0 {
		m["store.disk_hit_ratio"] = float64(dh) / float64(dh+dm)
	}
	if d := s.st.Stats().Disk; d != nil && d.Entries > 0 {
		m["store.disk_bytes_per_entry"] = float64(d.Bytes) / float64(d.Entries)
	}
}

// seq returns 0, 1, …, n-1.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
