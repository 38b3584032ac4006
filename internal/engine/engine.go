// Package engine is the unified evaluation service of the reproduction:
// one Rule abstraction covering oblivious coins, single thresholds,
// interval-set response rules and the PY91 baseline protocols, evaluated
// on any instance through pluggable backends.
//
// Four backends are provided:
//
//   - Exact — the per-class analytic oracle (Theorem 4.1 for oblivious
//     rules, Theorem 5.1 for thresholds, the Lemma 2.4 pattern masses for
//     interval sets, the closed-form oracles for PY91 protocols);
//   - MonteCarlo — the sim package's deterministic parallel estimator;
//   - MonteCarloQMC — the randomized quasi-Monte-Carlo estimator
//     (scrambled Sobol replicates) for local-rule systems;
//   - Auto — exact when the rule has an exact evaluator and the instance
//     is within its player cap, simulation otherwise.
//
// Every evaluation is memoized behind a concurrency-safe cache keyed on
// (instance, rule fingerprint, resolved backend, backend tolerance), with
// hit/miss counters registered in the internal/obs registry, and Sweep
// shards whole parameter grids across workers. The engine is the seam the
// layers above share: harness experiments build rule sets instead of
// bespoke closures, and both CLIs and the HTTP service expose the backend
// choice as a flag.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/sim"
	"repro/internal/store"
)

// Instance is the canonical problem instance: N players with inputs
// uniform on [0, π_i] (nil Pi ⇒ the homogeneous U[0,1] game) and two
// bins of capacity Delta. It is an alias of problem.Instance, so the
// engine and the harness share one definition, one Validate, and one
// cache key.
type Instance = problem.Instance

// Backend selects how a rule is evaluated.
type Backend int

// The three backends.
const (
	// Auto picks Exact when the rule implements ExactOpts and falls back
	// to MonteCarlo otherwise, or when the exact oracle refuses the
	// instance on its player cap (problem.ErrPlayerCap).
	Auto Backend = iota
	// Exact evaluates through the rule's analytic oracle.
	Exact
	// MonteCarlo estimates by simulation (sim.WinProbability for rules
	// with a local-rule system, the rule's own simulator otherwise).
	// Systems whose rules implement model.BatchRule run on the
	// allocation-free batch kernel; results are bit-identical to the
	// per-trial path for a fixed (Seed, Workers) pair either way.
	MonteCarlo
	// MonteCarloQMC estimates by randomized quasi-Monte-Carlo
	// (sim.WinProbabilityQMC): scrambled Sobol replicates instead of
	// pseudo-random trials, buying far fewer trials per unit of
	// precision. Only rules whose trial logic is a local-rule system
	// qualify (protocol rules with their own Simulator are rejected at
	// resolve time); results depend on (Trials, Seed, Replicates) but
	// not on Workers.
	MonteCarloQMC
)

// String returns "auto", "exact", "mc" or "mc-qmc".
func (b Backend) String() string {
	switch b {
	case Auto:
		return "auto"
	case Exact:
		return "exact"
	case MonteCarlo:
		return "mc"
	case MonteCarloQMC:
		return "mc-qmc"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// ParseBackend parses the CLI spelling of a backend: exact, mc (or
// montecarlo), mc-qmc (or qmc), auto.
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(s) {
	case "auto":
		return Auto, nil
	case "exact":
		return Exact, nil
	case "mc", "montecarlo", "monte-carlo", "sim":
		return MonteCarlo, nil
	case "mc-qmc", "qmc", "mcqmc":
		return MonteCarloQMC, nil
	default:
		return Auto, fmt.Errorf("engine: unknown backend %q (want exact, mc, mc-qmc or auto)", s)
	}
}

// Result is one evaluated winning probability.
type Result struct {
	// P is the winning probability (exact value or simulation estimate).
	P float64
	// StdErr is the estimate's standard error (0 for exact backends).
	StdErr float64
	// Backend is the backend that actually ran (Exact, MonteCarlo or
	// MonteCarloQMC, never Auto).
	Backend Backend
	// Cached reports whether the value was served from the memoization
	// cache rather than recomputed.
	Cached bool
	// Sim holds the full simulation result when Backend == MonteCarlo.
	Sim *sim.Result
}

// Config configures an Engine.
type Config struct {
	// Sim is the default Monte-Carlo configuration used by Evaluate when
	// the caller does not supply one. A zero Trials selects
	// DefaultTrials.
	Sim sim.Config
	// Obs optionally registers the engine's cache hit/miss and
	// per-backend evaluation counters (engine.cache.hits,
	// engine.cache.misses, engine.evals.exact, engine.evals.mc) plus the
	// exact backend's exact.* enumeration counters.
	Obs *obs.Observer
	// ExactWorkers is ignored: the exact backend runs serially.
	//
	// Deprecated: kept only so the benchmark module, which still sets it,
	// compiles; it changes neither the result nor the work.
	ExactWorkers int
	// Store is the tiered result store backing the memoization cache.
	// Nil selects a private, unbounded memory store — the engine's
	// original process-local behavior. Supplying a disk-tiered store
	// (store.New with Options.Dir) makes expensive results survive
	// restarts and lets replicas share a cache directory.
	Store store.Store
}

// DefaultTrials is the Monte-Carlo trial count used when neither the
// engine's Config nor the caller specifies one.
const DefaultTrials = 200_000

// Engine evaluates rules on instances through pluggable backends behind a
// concurrency-safe memoization cache (a store.Store: singleflight memory
// tier, optional content-addressed disk tier). The zero value is not
// usable; use New.
type Engine struct {
	simCfg sim.Config
	obs    *obs.Observer
	store  store.Store
}

// New builds an engine.
func New(cfg Config) *Engine {
	if cfg.Sim.Trials <= 0 {
		cfg.Sim.Trials = DefaultTrials
	}
	st := cfg.Store
	if st == nil {
		st = store.NewMemory(store.Options{Obs: cfg.Obs})
	}
	return &Engine{simCfg: cfg.Sim, obs: cfg.Obs, store: st}
}

// SimConfig returns the engine's default Monte-Carlo configuration.
func (e *Engine) SimConfig() sim.Config { return e.simCfg }

// CacheLen reports the number of memoized evaluations.
func (e *Engine) CacheLen() int { return e.store.Len() }

// ResultStore returns the engine's result store, exposing its stats (and
// disk tier, when one is configured) to the layers above.
func (e *Engine) ResultStore() store.Store { return e.store }

// Evaluate evaluates the rule on the instance with the engine's default
// Monte-Carlo configuration.
func (e *Engine) Evaluate(inst Instance, r Rule, backend Backend) (Result, error) {
	return e.EvaluateWithCtx(context.Background(), inst, r, backend, e.simCfg)
}

// EvaluateWithCtx evaluates the rule on the instance, using simCfg when
// the resolved backend is Monte-Carlo; a zero simCfg.Trials selects the
// engine's default configuration. Results are memoized: the cache key is
// (instance, rule fingerprint, resolved backend, backend tolerance), where
// the tolerance is the (Trials, Seed, Workers) triple for Monte-Carlo —
// the knobs that change the returned bits — and is empty for Exact
// (a rule-level tolerance would be part of the fingerprint).
// Observability settings are excluded from the key: they never change
// the result, but a cache hit skips the simulation and therefore
// re-emits no convergence events.
//
// Two context features are honored:
//
//   - Span parenting: when ctx carries an obs span (obs.ContextWithSpan),
//     the evaluation opens an engine.evaluate child span, and an uncached
//     computation opens a backend.exact / backend.mc child under that —
//     the handler → engine → backend trace tree. Without a span in ctx
//     the evaluation emits no spans.
//   - Deadline/cancellation: a cancellable ctx bounds the *wait*, not the
//     work. If ctx expires while the result is being computed, the call
//     returns ctx.Err() immediately, the computation keeps running in the
//     background, and its result still lands in the cache — so an
//     abandoned exact evaluation warms the cache for the next request.
//     The abandonment is recorded in the engine.evals.abandoned counter
//     and a deadline_exceeded span attribute.
//
// The cache key is unchanged by ctx: contexts never alter the returned
// bits, only how long the caller is willing to wait for them.
func (e *Engine) EvaluateWithCtx(ctx context.Context, inst Instance, r Rule, backend Backend, simCfg sim.Config) (Result, error) {
	return e.evaluate(ctx, inst, r, backend, simCfg, nil)
}

// evaluate is EvaluateWithCtx with an optional sweep worker's reusable
// oblivious tables (nil outside qualifying sweeps), which serve the Exact
// computation instead of a one-shot table build.
func (e *Engine) evaluate(ctx context.Context, inst Instance, r Rule, backend Backend, simCfg sim.Config, tables *sweepTables) (Result, error) {
	if r == nil {
		return Result{}, fmt.Errorf("engine: nil rule")
	}
	if err := inst.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	resolved, err := e.resolve(r, backend)
	if err != nil {
		return Result{}, err
	}
	if simCfg.Trials <= 0 {
		simCfg = e.simCfg
	}
	key := inst.Key() + "|r=" + r.Fingerprint() + "|b=" + resolved.String()
	switch resolved {
	case MonteCarlo:
		key += "|t=" + strconv.Itoa(simCfg.Trials) +
			",s=" + strconv.FormatUint(simCfg.Seed, 10) +
			",w=" + strconv.Itoa(simCfg.Workers)
	case MonteCarloQMC:
		// Replicates are striped deterministically, so Workers never
		// changes the returned bits and stays out of the key.
		key += "|t=" + strconv.Itoa(simCfg.Trials) +
			",s=" + strconv.FormatUint(simCfg.Seed, 10) +
			",r=" + strconv.Itoa(simCfg.Replicates)
	}

	slot, ok := e.store.Acquire(key)
	joined := ok && !slot.Done()

	var sp *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		sp = parent.Child("engine.evaluate")
		sp.SetField("rule", r.Name())
		sp.SetField("backend", resolved.String())
		ctx = obs.ContextWithSpan(ctx, sp)
		defer sp.End()
	}

	computed := false
	work := func() {
		slot.Fill(func() (store.Value, error) {
			computed = true
			e.obs.Counter("engine.cache.misses").Inc()
			res, err := e.compute(ctx, inst, r, resolved, simCfg, tables)
			if err != nil {
				return store.Value{}, err
			}
			return store.Value{P: res.P, StdErr: res.StdErr, Backend: res.Backend.String(), Sim: res.Sim}, nil
		})
	}
	if ctx.Done() == nil || slot.Done() {
		// No deadline to watch (or the slot is already warm, so Fill
		// returns without blocking): run inline, no goroutine overhead.
		work()
	} else {
		finished := make(chan struct{})
		go func() {
			work()
			close(finished)
		}()
		select {
		case <-finished:
		case <-ctx.Done():
			sp.SetAttr("deadline_exceeded", 1)
			e.obs.Counter("engine.evals.abandoned").Inc()
			return Result{}, ctx.Err()
		}
	}
	val, err := slot.Result()
	if err != nil {
		if backend == Auto && resolved == Exact && errors.Is(err, problem.ErrPlayerCap) {
			// The exact oracle refused the instance on its player cap:
			// Auto falls through to simulation.
			return e.evaluate(ctx, inst, r, MonteCarlo, simCfg, nil)
		}
		return Result{}, err
	}
	res, err := resultFromValue(val)
	if err != nil {
		return Result{}, err
	}
	if !computed {
		// A slot filled from the disk tier counts as a cache hit: the
		// value was served from the store, not recomputed — no backend
		// ran, no engine.evals.* counter moved.
		if joined {
			e.obs.Counter("engine.cache.coalesced").Inc()
		}
		e.obs.Counter("engine.cache.hits").Inc()
		res.Cached = true
		sp.SetAttr("cached", 1)
		if slot.FromDisk() {
			sp.SetAttr("store.fill", 1)
		}
	}
	return res, nil
}

// resultFromValue rehydrates an engine Result from its store encoding,
// copying the Sim payload so callers can never alias the cached value.
func resultFromValue(v store.Value) (Result, error) {
	b, err := ParseBackend(v.Backend)
	if err != nil {
		return Result{}, fmt.Errorf("engine: cached value from incompatible store: %w", err)
	}
	res := Result{P: v.P, StdErr: v.StdErr, Backend: b}
	if v.Sim != nil {
		cp := *v.Sim
		res.Sim = &cp
	}
	return res, nil
}

// resolve maps Auto onto a concrete backend and rejects impossible
// requests early (Exact on a rule without an exact oracle).
func (e *Engine) resolve(r Rule, backend Backend) (Backend, error) {
	switch backend {
	case Exact:
		if _, ok := r.(ExactOpts); !ok {
			return 0, fmt.Errorf("engine: rule %s has no exact evaluator", r.Name())
		}
		return Exact, nil
	case MonteCarlo:
		return MonteCarlo, nil
	case MonteCarloQMC:
		if _, ok := r.(Simulator); ok {
			return 0, fmt.Errorf("engine: rule %s has a bespoke simulator; mc-qmc needs a local-rule system", r.Name())
		}
		return MonteCarloQMC, nil
	case Auto:
		if _, ok := r.(ExactOpts); ok {
			return Exact, nil
		}
		return MonteCarlo, nil
	default:
		return 0, fmt.Errorf("engine: unknown backend %d", int(backend))
	}
}

// compute runs one uncached evaluation on the resolved backend. When ctx
// carries an obs span (the engine.evaluate span of the caller that won the
// singleflight race) the computation runs under a backend.exact /
// backend.mc child span.
func (e *Engine) compute(ctx context.Context, inst Instance, r Rule, backend Backend, simCfg sim.Config, tables *sweepTables) (Result, error) {
	if parent := obs.SpanFromContext(ctx); parent != nil {
		sp := parent.Child("backend." + backend.String())
		defer sp.End()
	}
	switch backend {
	case Exact:
		e.obs.Counter("engine.evals.exact").Inc()
		var p float64
		var err error
		if tables != nil {
			p, err = tables.evaluate(e.obs, r.(obliviousAlphaRule).alphaVector(inst.N))
		} else {
			p, err = r.(ExactOpts).ExactWinProbabilityOpts(inst, 0, e.obs)
		}
		if err != nil {
			return Result{}, err
		}
		return Result{P: p, Backend: Exact}, nil
	case MonteCarlo:
		e.obs.Counter("engine.evals.mc").Inc()
		res, err := e.simulate(inst, r, simCfg)
		if err != nil {
			return Result{}, err
		}
		return Result{P: res.P, StdErr: res.StdErr, Backend: MonteCarlo, Sim: &res}, nil
	case MonteCarloQMC:
		e.obs.Counter("engine.evals.mc_qmc").Inc()
		sys, err := r.System(inst)
		if err != nil {
			return Result{}, err
		}
		res, err := sim.WinProbabilityQMC(sys, simCfg)
		if err != nil {
			return Result{}, err
		}
		return Result{P: res.P, StdErr: res.StdErr, Backend: MonteCarloQMC, Sim: &res}, nil
	default:
		return Result{}, fmt.Errorf("engine: unresolved backend %v", backend)
	}
}

// simulate runs the Monte-Carlo backend: rules with their own simulator
// (protocols whose trial logic cannot be expressed as per-player local
// rules) take precedence; everything else builds a model.System and runs
// through sim.WinProbability — bit-identical to calling the simulator
// directly.
func (e *Engine) simulate(inst Instance, r Rule, simCfg sim.Config) (sim.Result, error) {
	if s, ok := r.(Simulator); ok {
		return s.Simulate(inst, simCfg)
	}
	sys, err := r.System(inst)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.WinProbability(sys, simCfg)
}
