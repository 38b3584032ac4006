package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Defaults for the Config knobs; every limit is overridable per server.
const (
	// DefaultDeadline is the per-request evaluation budget.
	DefaultDeadline = 10 * time.Second
	// DefaultTrials is the Monte-Carlo trial count for mc-backend
	// requests that do not set one (matches the CLI default).
	DefaultTrials = engine.DefaultTrials
	// DefaultDegradedTrials is the trial count of the Monte-Carlo
	// fallback when an exact evaluation misses its deadline: small enough
	// to answer fast, large enough for a usable standard error (~0.003).
	DefaultDegradedTrials = 20_000
	// DefaultMaxBodyBytes caps request bodies.
	DefaultMaxBodyBytes = 1 << 20
	// DefaultMaxN caps the per-request player count: exact backends are
	// exponential in n, and the service must stay responsive.
	DefaultMaxN = 32
	// DefaultMaxTrials caps per-request Monte-Carlo trials.
	DefaultMaxTrials = 50_000_000
	// DefaultMaxPoints caps sweep grid sizes.
	DefaultMaxPoints = 4096
	// defaultSeed matches the CLIs' -seed default so a canonical request
	// reproduces CLI output bit-for-bit.
	defaultSeed = 1
)

// Config configures a Server. The zero value is usable: a private
// engine, no observability, all limits at their defaults.
type Config struct {
	// Engine is the evaluation engine (shared memoization cache). Nil
	// builds a private memory-only engine wired to Obs; a disk tier (warm
	// restarts) is a store wired into the engine.
	Engine *engine.Engine
	// Obs receives the server's metrics, spans and access events. Nil
	// disables instrumentation (the handlers still work).
	Obs *obs.Observer
	// Trials is the default Monte-Carlo trial count (0 = DefaultTrials).
	Trials int
	// DegradedTrials is the Monte-Carlo budget of the degraded fallback
	// (0 = DefaultDegradedTrials).
	DegradedTrials int
	// Deadline is the default per-request budget (0 = DefaultDeadline).
	// Requests can lower it via deadline_ms but never exceed it.
	Deadline time.Duration
	// MaxN caps the instance size (0 = DefaultMaxN).
	MaxN int
	// MaxTrials caps per-request trial counts (0 = DefaultMaxTrials).
	MaxTrials int
	// MaxPoints caps sweep grids (0 = DefaultMaxPoints).
	MaxPoints int
	// MaxBodyBytes caps request bodies (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

// Server is the evaluation service. Build with New, serve its Handler.
type Server struct {
	cfg Config
	eng *engine.Engine
	obs *obs.Observer
	mux *http.ServeMux

	runID    string       // random per-process prefix of request ids
	reqSeq   atomic.Int64 // per-process request sequence
	inflight atomic.Int64
	ready    atomic.Bool
}

// New builds a Server, applies Config defaults, registers metric help
// text, and mounts the routes. The returned server is ready to serve;
// Ready flips true after the warmup canary (a trivial exact evaluation)
// completes, which /readyz reports.
func New(cfg Config) *Server {
	if cfg.Trials <= 0 {
		cfg.Trials = DefaultTrials
	}
	if cfg.DegradedTrials <= 0 {
		cfg.DegradedTrials = DefaultDegradedTrials
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = DefaultDeadline
	}
	if cfg.MaxN <= 0 {
		cfg.MaxN = DefaultMaxN
	}
	if cfg.MaxTrials <= 0 {
		cfg.MaxTrials = DefaultMaxTrials
	}
	if cfg.MaxPoints <= 0 {
		cfg.MaxPoints = DefaultMaxPoints
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.Engine == nil {
		cfg.Engine = engine.New(engine.Config{Obs: cfg.Obs})
	}
	s := &Server{
		cfg:   cfg,
		eng:   cfg.Engine,
		obs:   cfg.Obs,
		mux:   http.NewServeMux(),
		runID: newRunID(),
	}
	s.registerHelp()
	s.routes()
	go s.warmup()
	return s
}

// Handler returns the server's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Ready reports whether the warmup canary has completed.
func (s *Server) Ready() bool { return s.ready.Load() }

// routes mounts every endpoint. API endpoints go through the instrument
// middleware (request id, span, latency histogram, status counters);
// /metrics and the pprof profilers are served raw so scrapes never skew
// the request metrics they report.
func (s *Server) routes() {
	s.mux.Handle("/v1/eval", s.instrument("eval", s.handleEval))
	s.mux.Handle("/v1/optimize", s.instrument("optimize", s.handleOptimize))
	s.mux.Handle("/v1/sweep", s.instrument("sweep", s.handleSweep))
	s.mux.Handle("/v1/table", s.instrument("table", s.handleTable))
	s.mux.Handle("/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.Handle("/readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// warmup runs the readiness canary: one trivial exact evaluation proving
// the whole evaluation stack (problem → engine → exact backend) works in
// this process. On success /readyz flips to 200.
func (s *Server) warmup() {
	inst, err := instanceFor(3, 1, nil, s.cfg.MaxN)
	if err == nil {
		_, err = s.eng.Evaluate(inst, engine.SymmetricThreshold{Beta: 0.5}, engine.Exact)
	}
	if err != nil {
		s.obs.EmitError("serve.warmup", err)
		return
	}
	s.ready.Store(true)
}

// registerHelp attaches Prometheus HELP text to every metric the server
// (and the engine underneath it) emits, so /metrics is self-describing.
func (s *Server) registerHelp() {
	if s.obs == nil || s.obs.Metrics == nil {
		return
	}
	reg := s.obs.Metrics
	reg.SetHelp("http.requests.total", "HTTP requests served, all endpoints.")
	reg.SetHelp("http.inflight", "HTTP requests currently being served.")
	reg.SetHelp("http.panics", "HTTP handlers recovered from a panic (each one is a bug).")
	reg.SetHelp("serve.degraded", "Requests answered by the Monte-Carlo fallback after an exact evaluation missed its deadline.")
	reg.SetHelp("engine.cache.hits", "Engine evaluations served from the memoization cache.")
	reg.SetHelp("engine.cache.misses", "Engine evaluations computed (cache misses).")
	reg.SetHelp("engine.cache.coalesced", "Engine evaluations that joined an identical in-flight computation.")
	reg.SetHelp("engine.evals.abandoned", "Engine evaluations whose caller gave up at a deadline while the computation continued in the background.")
	reg.SetHelp("optimize.evals", "Objective evaluations performed by engine optimization runs.")
	reg.SetHelp("optimize.cache_hits", "Optimization probes served from the engine's memoization cache.")
	reg.SetHelp("store.evictions", "Completed result-store entries evicted from the bounded memory tier.")
	reg.SetHelp("store.disk.hits", "Result-store lookups served from the disk tier.")
	reg.SetHelp("store.disk.misses", "Result-store disk-tier lookups that found no valid entry.")
	reg.SetHelp("store.disk.writes", "Result-store entries written through to the disk tier.")
	reg.SetHelp("store.corrupt", "Disk-tier entries that failed validation and were quarantined.")
	for _, ep := range []string{"eval", "optimize", "sweep", "table", "healthz", "readyz"} {
		reg.SetHelp("http.requests."+ep, "HTTP requests on /"+ep+".")
		reg.SetHelp("http.latency."+ep, "HTTP request latency on /"+ep+" in seconds.")
		for _, class := range []string{"2xx", "4xx", "5xx"} {
			reg.SetHelp("http.requests."+ep+"."+class, "HTTP "+class+" responses on /"+ep+".")
		}
	}
}

// newRunID draws a short random per-process prefix so request ids from
// different server processes never collide in shared logs.
func newRunID() string {
	var b [3]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "000000"
	}
	return hex.EncodeToString(b[:])
}

// nextRequestID mints the next request id: <runid>-<seq>.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", s.runID, s.reqSeq.Add(1))
}
