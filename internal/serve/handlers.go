package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/sim"
)

// instanceFor builds and validates the request's problem instance,
// enforcing the server's size cap.
func instanceFor(n int, delta float64, pi []float64, maxN int) (engine.Instance, error) {
	if n == 0 {
		n = len(pi)
	}
	if n <= 0 {
		return engine.Instance{}, badRequest("n (or a non-empty pi vector) is required")
	}
	if n > maxN {
		return engine.Instance{}, badRequest("n = %d exceeds the server's limit %d", n, maxN)
	}
	if err := finite("delta", delta); err != nil {
		return engine.Instance{}, err
	}
	for i, p := range pi {
		if err := finite(fmt.Sprintf("pi[%d]", i), p); err != nil {
			return engine.Instance{}, err
		}
	}
	var inst problem.Instance
	var err error
	if len(pi) > 0 {
		inst, err = problem.NewPi(n, delta, pi)
	} else {
		inst, err = problem.New(n, delta)
	}
	if err != nil {
		return engine.Instance{}, badRequest("%v", err)
	}
	return inst, nil
}

// ruleFor builds the request's rule from its kind/param pair.
func ruleFor(kind string, param float64) (engine.Rule, error) {
	if err := finite("param", param); err != nil {
		return nil, err
	}
	switch kind {
	case "threshold":
		return engine.SymmetricThreshold{Beta: param}, nil
	case "oblivious":
		if param < 0 || param > 1 {
			return nil, badRequest("oblivious param (bin-0 probability) must be in [0, 1], got %g", param)
		}
		return engine.SymmetricOblivious{A: param}, nil
	case "":
		return nil, badRequest("kind is required (threshold or oblivious)")
	default:
		return nil, badRequest("unknown kind %q (want threshold or oblivious)", kind)
	}
}

// simConfigFor resolves a request's Monte-Carlo knobs against the
// server's defaults and caps. Seed 0 selects the CLI default seed so a
// canonical request reproduces `nocomm eval` output bit-for-bit.
// Replicates only matters to the mc-qmc backend (0 = sim default).
func (s *Server) simConfigFor(trials int, seed uint64, workers, replicates int) (sim.Config, error) {
	if trials < 0 {
		return sim.Config{}, badRequest("trials must be non-negative")
	}
	if trials == 0 {
		trials = s.cfg.Trials
	}
	if trials > s.cfg.MaxTrials {
		return sim.Config{}, badRequest("trials = %d exceeds the server's limit %d", trials, s.cfg.MaxTrials)
	}
	if workers < 0 {
		return sim.Config{}, badRequest("workers must be non-negative")
	}
	if replicates < 0 {
		return sim.Config{}, badRequest("replicates must be non-negative")
	}
	if replicates > trials {
		return sim.Config{}, badRequest("replicates = %d exceeds trials = %d", replicates, trials)
	}
	if seed == 0 {
		seed = defaultSeed
	}
	return sim.Config{Trials: trials, Seed: seed, Workers: workers, Replicates: replicates, Obs: s.obs}, nil
}

// deadlineFor resolves a request's deadline_ms against the server's
// default budget; requests can shorten the budget but never extend it.
func (s *Server) deadlineFor(ms int) (time.Duration, error) {
	if ms < 0 {
		return 0, badRequest("deadline_ms must be non-negative")
	}
	d := time.Duration(ms) * time.Millisecond
	if d == 0 || d > s.cfg.Deadline {
		d = s.cfg.Deadline
	}
	return d, nil
}

// requirePost rejects non-POST methods on the API endpoints.
func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST with a JSON body")
		return false
	}
	return true
}

// evaluateOne runs one evaluation under the request deadline with
// graceful degradation: if an exact (or auto-resolved-exact) evaluation
// misses the deadline — the computation keeps running in the background,
// warming the engine cache — the request is answered by a bounded
// Monte-Carlo estimate instead, and the degradation is recorded in the
// serve.degraded counter and a degraded=1 attribute on the request span.
func (s *Server) evaluateOne(ctx context.Context, inst engine.Instance, rule engine.Rule, backend engine.Backend, simCfg sim.Config, deadline time.Duration) (engine.Result, bool, error) {
	dctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	res, err := s.eng.EvaluateWithCtx(dctx, inst, rule, backend, simCfg)
	if err == nil || !isDeadline(err) || backend == engine.MonteCarlo || backend == engine.MonteCarloQMC {
		return res, false, err
	}
	// Exact evaluation missed the budget: degrade to a fast sampled
	// estimate. Quasi-Monte-Carlo is tried first — at the degraded trial
	// budget its replicate error is several times tighter than plain MC —
	// and rules it cannot run (bespoke simulators, too many dimensions)
	// fall back to the pseudo-random estimator. Each fallback gets its own
	// (short) budget so a stuck simulation still cannot hold the
	// connection forever.
	s.obs.Counter("serve.degraded").Inc()
	if sp := obs.SpanFromContext(ctx); sp != nil {
		sp.SetAttr("degraded", 1)
	}
	mcCfg := simCfg
	mcCfg.Trials = s.cfg.DegradedTrials
	fctx, fcancel := context.WithTimeout(ctx, deadline)
	defer fcancel()
	if qres, qerr := s.eng.EvaluateWithCtx(fctx, inst, rule, engine.MonteCarloQMC, mcCfg); qerr == nil {
		return qres, true, nil
	} else if isDeadline(qerr) {
		return qres, true, qerr
	}
	res, err = s.eng.EvaluateWithCtx(fctx, inst, rule, engine.MonteCarlo, mcCfg)
	return res, err == nil, err
}

// handleEval serves POST /v1/eval: one rule on one instance.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req EvalRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeErr(w, err)
		return
	}
	inst, err := instanceFor(req.N, req.Delta, req.Pi, s.cfg.MaxN)
	if err != nil {
		writeErr(w, err)
		return
	}
	rule, err := ruleFor(req.Kind, req.Param)
	if err != nil {
		writeErr(w, err)
		return
	}
	backend, err := parseBackend(req.Backend)
	if err != nil {
		writeErr(w, err)
		return
	}
	simCfg, err := s.simConfigFor(req.Trials, req.Seed, req.Workers, req.Replicates)
	if err != nil {
		writeErr(w, err)
		return
	}
	deadline, err := s.deadlineFor(req.DeadlineMS)
	if err != nil {
		writeErr(w, err)
		return
	}

	res, degraded, err := s.evaluateOne(r.Context(), inst, rule, backend, simCfg, deadline)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := EvalResponse{
		N:        inst.N,
		Delta:    inst.Delta,
		Pi:       req.Pi,
		Kind:     req.Kind,
		Param:    req.Param,
		P:        res.P,
		StdErr:   res.StdErr,
		Backend:  res.Backend.String(),
		Cached:   res.Cached,
		Degraded: degraded,
	}
	if res.Sim != nil {
		resp.Trials = res.Sim.Trials
		resp.Replicates = res.Sim.Replicates
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleOptimize serves POST /v1/optimize: maximize a rule family's
// winning probability on one instance. The search routes through
// engine.OptimizeCtx, so probes share the server engine's memoization
// cache and the request span parents the
// engine.optimize → engine.evaluate → backend.* trace tree. A search that
// outlives the request deadline degrades to its best-so-far point
// (degraded=true, the serve.degraded counter, a degraded=1 span
// attribute), mirroring /v1/eval's degradation contract; a deadline that
// struck before any probe finished is a 503.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req OptimizeRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeErr(w, err)
		return
	}
	inst, err := instanceFor(req.N, req.Delta, req.Pi, s.cfg.MaxN)
	if err != nil {
		writeErr(w, err)
		return
	}
	if req.Kind == "" {
		writeErr(w, badRequest("kind is required (threshold, oblivious or vector)"))
		return
	}
	fam, err := engine.FamilyForKind(req.Kind)
	if err != nil {
		writeErr(w, badRequest("%v", err))
		return
	}
	backend, err := parseBackend(req.Backend)
	if err != nil {
		writeErr(w, err)
		return
	}
	simCfg, err := s.simConfigFor(req.Trials, req.Seed, req.Workers, 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	deadline, err := s.deadlineFor(req.DeadlineMS)
	if err != nil {
		writeErr(w, err)
		return
	}
	if req.GridPoints < 0 || req.GridPoints > s.cfg.MaxPoints {
		writeErr(w, badRequest("grid_points = %d outside [0, %d]", req.GridPoints, s.cfg.MaxPoints))
		return
	}
	if req.Passes < 0 || req.Passes > s.cfg.MaxPoints {
		writeErr(w, badRequest("passes = %d outside [0, %d]", req.Passes, s.cfg.MaxPoints))
		return
	}
	if err := finite("tol", req.Tol); err != nil {
		writeErr(w, err)
		return
	}
	if req.Tol < 0 {
		writeErr(w, badRequest("tol must be non-negative"))
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	res, err := s.eng.OptimizeCtx(ctx, inst, fam, engine.OptimizeOptions{
		Backend:    backend,
		Sim:        simCfg,
		GridPoints: req.GridPoints,
		Tol:        req.Tol,
		Passes:     req.Passes,
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	if res.Degraded {
		s.obs.Counter("serve.degraded").Inc()
		if sp := obs.SpanFromContext(r.Context()); sp != nil {
			sp.SetAttr("degraded", 1)
		}
	}
	resp := OptimizeResponse{
		N:            inst.N,
		Delta:        inst.Delta,
		Pi:           req.Pi,
		Kind:         req.Kind,
		Params:       res.Params,
		P:            res.Value,
		Backend:      res.Backend.String(),
		Evals:        res.Evals,
		CacheHits:    res.CacheHits,
		Iterations:   res.Iterations,
		DeltaUpdates: res.DeltaUpdates,
		Degraded:     res.Degraded,
	}
	if len(res.Params) == 1 {
		resp.Param = res.Params[0]
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSweep serves POST /v1/sweep: one rule family on a parameter grid.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req SweepRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeErr(w, err)
		return
	}
	inst, err := instanceFor(req.N, req.Delta, req.Pi, s.cfg.MaxN)
	if err != nil {
		writeErr(w, err)
		return
	}
	params, err := s.sweepGrid(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	backend, err := parseBackend(req.Backend)
	if err != nil {
		writeErr(w, err)
		return
	}
	simCfg, err := s.simConfigFor(req.Trials, req.Seed, req.Workers, 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	deadline, err := s.deadlineFor(req.DeadlineMS)
	if err != nil {
		writeErr(w, err)
		return
	}

	points := make([]engine.Point, len(params))
	for i, p := range params {
		rule, err := ruleFor(req.Kind, p)
		if err != nil {
			writeErr(w, err)
			return
		}
		points[i] = engine.Point{Instance: inst, Rule: rule}
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	opts := engine.SweepOptions{Backend: backend, Workers: req.Workers, Sim: simCfg}
	if req.Stream {
		s.streamSweep(ctx, w, req, inst, params, points, opts)
		return
	}
	results, err := s.eng.Sweep(ctx, points, opts)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := SweepResponse{N: inst.N, Delta: inst.Delta, Pi: req.Pi, Kind: req.Kind, Points: make([]SweepPoint, len(results))}
	for i, res := range results {
		resp.Points[i] = SweepPoint{
			Param:   params[i],
			P:       res.P,
			StdErr:  res.StdErr,
			Backend: res.Backend.String(),
			Cached:  res.Cached,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// sweepGrid resolves a sweep request's grid: explicit params, or a
// linear from/to/points ramp, capped at MaxPoints.
func (s *Server) sweepGrid(req SweepRequest) ([]float64, error) {
	if len(req.Params) > 0 {
		if req.Points != 0 || req.From != 0 || req.To != 0 {
			return nil, badRequest("params and from/to/points are mutually exclusive")
		}
		if len(req.Params) > s.cfg.MaxPoints {
			return nil, badRequest("%d params exceed the server's limit %d", len(req.Params), s.cfg.MaxPoints)
		}
		for i, p := range req.Params {
			if err := finite(fmt.Sprintf("params[%d]", i), p); err != nil {
				return nil, err
			}
		}
		return req.Params, nil
	}
	if req.Points <= 0 {
		return nil, badRequest("either params or from/to/points is required")
	}
	if req.Points > s.cfg.MaxPoints {
		return nil, badRequest("points = %d exceeds the server's limit %d", req.Points, s.cfg.MaxPoints)
	}
	if err := finite("from", req.From); err != nil {
		return nil, err
	}
	if err := finite("to", req.To); err != nil {
		return nil, err
	}
	grid := make([]float64, req.Points)
	if req.Points == 1 {
		grid[0] = req.From
		return grid, nil
	}
	step := (req.To - req.From) / float64(req.Points-1)
	for i := range grid {
		grid[i] = req.From + float64(i)*step
	}
	return grid, nil
}

// handleTable serves POST /v1/table: one harness table experiment,
// rendered as text. The run shares the server's engine, so repeated
// requests for the same table are served from the memoization cache.
func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req TableRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.ID == "" {
		writeErr(w, badRequest("id is required (a registry id like T1 or an alias like oblivious)"))
		return
	}
	exp, err := harness.Lookup(req.ID)
	if err != nil {
		writeErr(w, badRequest("%v", err))
		return
	}
	if exp.Kind != harness.KindTable {
		writeErr(w, badRequest("experiment %s is a figure; /v1/table serves table experiments", exp.ID))
		return
	}
	backend, err := parseBackend(req.Backend)
	if err != nil {
		writeErr(w, err)
		return
	}
	simCfg, err := s.simConfigFor(req.Trials, req.Seed, req.Workers, 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	for i, p := range req.Pi {
		if err := finite(fmt.Sprintf("pi[%d]", i), p); err != nil {
			writeErr(w, err)
			return
		}
	}
	out, err := exp.Run(s.obs, harness.Params{
		Sim:     simCfg,
		Backend: backend,
		Pi:      req.Pi,
		Engine:  s.eng,
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	text, err := out.Table.Render()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, TableResponse{ID: exp.ID, Title: exp.Title, Text: text})
}

// handleHealthz is the liveness probe: the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz is the readiness probe: 200 once the warmup canary (one
// trivial exact evaluation through the full stack) has completed. With a
// disk-tiered result store the body additionally reports the tier's
// stats, so a warm-started replica shows at a glance what it inherited.
// Without one the body is exactly "ready\n", byte-compatible with probes
// written before the store existed.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "warming up\n")
		return
	}
	io.WriteString(w, "ready\n")
	if d := s.eng.ResultStore().Stats().Disk; d != nil {
		fmt.Fprintf(w, "store.disk.dir %s\n", d.Dir)
		fmt.Fprintf(w, "store.disk.entries %d\n", d.Entries)
		fmt.Fprintf(w, "store.disk.bytes %d\n", d.Bytes)
		fmt.Fprintf(w, "store.disk.hits %d\n", d.Hits)
		fmt.Fprintf(w, "store.disk.misses %d\n", d.Misses)
	}
}

// handleMetrics serves the live registry in the Prometheus text
// exposition format, sampling the Go runtime gauges at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil || s.obs.Metrics == nil {
		writeError(w, http.StatusNotImplemented, "no_metrics", "server started without a metrics registry")
		return
	}
	obs.CollectRuntime(s.obs)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.obs.Metrics.Snapshot().WritePrometheus(w); err != nil {
		s.obs.EmitError("serve.metrics", err)
	}
}
