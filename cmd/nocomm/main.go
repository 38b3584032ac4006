// Command nocomm is the command-line front end of the reproduction: it
// evaluates exact winning probabilities, derives certified optima, runs
// Monte-Carlo simulations, regenerates every table and figure from the
// paper's evaluation, and replays observability run logs.
//
// Usage:
//
//	nocomm eval     -n 3 -delta 1 -kind threshold -param 0.622 [-backend exact|mc|mc-qmc|auto]
//	nocomm optimize -n 3 -delta 1 -kind threshold|oblivious|vector [-pi 0.5,1,1]
//	nocomm simulate -n 3 -delta 1 -kind oblivious -param 0.5 -trials 1000000
//	nocomm certify  -n 3 -delta 1
//	nocomm figure   F1 [-points 201] [-backend auto] [-svg f1.svg] [-csv f1.csv]
//	nocomm table    T2 [-trials 200000] [-backend auto] [-csv t2.csv]
//	nocomm serve    [-addr 127.0.0.1:8080] [-deadline 10s] [-pprof]
//	nocomm cache    -cache-dir results.cache [-purge]
//	nocomm metrics  run.jsonl
//	nocomm list
//
// serve exposes the engine as a JSON HTTP API (POST /v1/eval, /v1/optimize,
// /v1/sweep, /v1/table) with live Prometheus metrics on GET /metrics, liveness and
// readiness probes, and optional pprof profilers; combined with -obs it
// writes one span tree per request (handler → engine → backend) to the
// run log, replayable via `nocomm metrics`.
//
// eval, figure and table route through the unified evaluation engine
// (internal/engine): -backend selects exact closed forms, Monte-Carlo
// simulation, or auto (exact when available and within the exact
// oracle's player cap, Monte-Carlo otherwise). Figure and table ids accept
// mnemonic aliases (`nocomm table oblivious` = T1), case-insensitively.
//
// eval, simulate and table also accept -pi, a comma-separated list of
// per-player input ranges for the heterogeneous game x_i ~ U[0, π_i]:
//
//	nocomm eval  -pi 0.5,1,0.75 -delta 1 -kind threshold -param 0.5
//	nocomm table hetero -pi 0.5,1,1 -trials 200000
//
// When -pi is given and -n is left unset, n follows the length of the π
// vector.
//
// eval, optimize, figure, table and serve accept -cache-dir, a persistent
// result-cache directory (the disk tier of the engine's store): results
// computed in one run are served from disk in the next, and `nocomm
// cache` inspects or purges the directory.
//
// Every workload subcommand also accepts the global observability flags
// (before or after the subcommand name):
//
//	-obs run.jsonl     append a structured JSONL event log (spans,
//	                   convergence checkpoints, errors, final snapshot)
//	-metrics           print a metrics snapshot on exit
//	-metrics-format f  snapshot format: json (default) or prom
//	-cpuprofile f      write a runtime/pprof CPU profile
//	-memprofile f      write a runtime/pprof heap profile
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/nonoblivious"
	"repro/internal/oblivious"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/sim"
	"repro/internal/store"
)

// subcommandList names every subcommand; keep the usage error, the help
// output, and the dispatch switch in sync.
const subcommandList = "eval, optimize, simulate, certify, figure, table, serve, cache, metrics, list"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nocomm:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	g := &obsFlags{}
	top := flag.NewFlagSet("nocomm", flag.ContinueOnError)
	g.register(top)
	if err := top.Parse(args); err != nil {
		return err
	}
	rest := top.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing subcommand (%s)", subcommandList)
	}
	switch rest[0] {
	case "eval":
		return cmdEval(g, rest[1:])
	case "optimize":
		return cmdOptimize(g, rest[1:])
	case "simulate":
		return cmdSimulate(g, rest[1:])
	case "figure":
		return cmdFigure(g, rest[1:])
	case "table":
		return cmdTable(g, rest[1:])
	case "serve":
		return cmdServe(g, rest[1:])
	case "cache":
		return cmdCache(g, rest[1:])
	case "certify":
		return cmdCertify(g, rest[1:])
	case "metrics":
		return cmdMetrics(rest[1:])
	case "list":
		return cmdList()
	case "-h", "--help", "help":
		fmt.Println("subcommands:", subcommandList)
		fmt.Println("global flags: -obs <file.jsonl>, -metrics, -metrics-format json|prom, -cpuprofile <file>, -memprofile <file>")
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q (known: %s)", rest[0], subcommandList)
	}
}

// obsFlags holds the global observability flags. They are registered on
// the top-level flag set and on every workload subcommand's flag set (both
// write the same fields), so `nocomm -obs run.jsonl simulate ...` and
// `nocomm simulate ... -obs run.jsonl` both work.
type obsFlags struct {
	obsPath    string
	metrics    bool
	metricsFmt string
	cpuProfile string
	memProfile string
}

func (g *obsFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&g.obsPath, "obs", g.obsPath, "append a JSONL observability run log to this file")
	fs.BoolVar(&g.metrics, "metrics", g.metrics, "print a metrics snapshot on exit")
	fs.StringVar(&g.metricsFmt, "metrics-format", cmpOr(g.metricsFmt, "json"), "metrics snapshot format: json or prom")
	fs.StringVar(&g.cpuProfile, "cpuprofile", g.cpuProfile, "write a CPU profile to this file")
	fs.StringVar(&g.memProfile, "memprofile", g.memProfile, "write a heap profile to this file")
}

func cmpOr(s, def string) string {
	if s != "" {
		return s
	}
	return def
}

// obsSession is one activated observability context: observer, open files,
// profiles. finish flushes everything and prints the snapshot.
type obsSession struct {
	g        *obsFlags
	observer *obs.Observer
	start    time.Time
	obsFile  *os.File
	cpuFile  *os.File
}

// start validates the flags and opens the requested instrumentation. It
// returns a session whose finish method must run after the workload.
func (g *obsFlags) start() (*obsSession, error) {
	s := &obsSession{g: g, start: time.Now()}
	switch g.metricsFmt {
	case "json", "prom":
	default:
		return nil, fmt.Errorf("unknown -metrics-format %q (want json or prom)", g.metricsFmt)
	}
	var sink *obs.Sink
	if g.obsPath != "" {
		f, err := os.OpenFile(g.obsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("opening -obs log: %w", err)
		}
		s.obsFile = f
		sink = obs.NewSink(f)
	}
	if g.obsPath != "" || g.metrics {
		s.observer = obs.New(obs.NewRegistry(), sink)
	}
	if g.cpuProfile != "" {
		f, err := os.Create(g.cpuProfile)
		if err != nil {
			return nil, fmt.Errorf("creating -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		s.cpuFile = f
	}
	return s, nil
}

// finish records the wall time, stops the profiles, appends the final
// snapshot to the run log, and prints the snapshot when -metrics is set.
// It reports its own failures through errp only if the workload succeeded.
func (s *obsSession) finish(errp *error) {
	fail := func(err error) {
		if err != nil && *errp == nil {
			*errp = err
		}
	}
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		fail(s.cpuFile.Close())
	}
	if s.g.memProfile != "" {
		f, err := os.Create(s.g.memProfile)
		if err != nil {
			fail(fmt.Errorf("creating -memprofile: %w", err))
		} else {
			runtime.GC()
			fail(pprof.WriteHeapProfile(f))
			fail(f.Close())
		}
	}
	if s.observer == nil {
		return
	}
	s.observer.Gauge("run.wall_seconds").Set(time.Since(s.start).Seconds())
	s.observer.EmitSnapshot()
	if s.obsFile != nil {
		fail(s.observer.Events.Err())
		fail(s.obsFile.Close())
	}
	if s.g.metrics {
		snap := s.observer.Metrics.Snapshot()
		var err error
		if s.g.metricsFmt == "prom" {
			err = snap.WritePrometheus(os.Stdout)
		} else {
			err = snap.WriteJSON(os.Stdout)
		}
		fail(err)
	}
}

func instanceFlags(fs *flag.FlagSet) (n *int, delta *float64) {
	n = fs.Int("n", 3, "number of players")
	delta = fs.Float64("delta", 1, "bin capacity δ")
	return n, delta
}

// piFlag registers the shared -pi flag for subcommands that accept the
// heterogeneous game x_i ~ U[0, π_i].
func piFlag(fs *flag.FlagSet) *string {
	return fs.String("pi", "", "comma-separated per-player input ranges π_i (heterogeneous x_i ~ U[0, π_i]; sets n when -n is unset)")
}

// cacheDirFlag registers the shared -cache-dir flag for subcommands that
// evaluate through the engine: when set, the engine's result store gains
// a log-structured disk tier in that directory, so expensive results
// survive across runs.
func cacheDirFlag(fs *flag.FlagSet) *string {
	return fs.String("cache-dir", "", "persistent result-cache directory (empty = in-memory cache only)")
}

// storeFor opens the engine's result store: disk-tiered when dir is
// non-empty, memory-only otherwise.
func storeFor(dir string, o *obs.Observer) (store.Store, error) {
	return store.New(store.Options{Dir: dir, Obs: o})
}

// resolveInstance builds the instance from -n/-delta/-pi after fs has
// been parsed. When -pi is given and -n was left at its default, the
// player count follows the length of the π vector.
func resolveInstance(fs *flag.FlagSet, n int, delta float64, piStr string) (problem.Instance, error) {
	pi, err := problem.ParsePi(piStr)
	if err != nil {
		return problem.Instance{}, err
	}
	if pi != nil {
		nSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "n" {
				nSet = true
			}
		})
		if !nSet {
			n = len(pi)
		}
	}
	return problem.NewPi(n, delta, pi)
}

func cmdEval(g *obsFlags, args []string) (err error) {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	g.register(fs)
	n, delta := instanceFlags(fs)
	piStr := piFlag(fs)
	kind := fs.String("kind", "threshold", "algorithm kind: threshold or oblivious")
	param := fs.Float64("param", 0.5, "common threshold β (threshold) or bin-0 probability a (oblivious)")
	backend := fs.String("backend", "exact", "evaluation backend: exact, mc, mc-qmc or auto")
	trials := fs.Int("trials", engine.DefaultTrials, "sampled trials (mc / mc-qmc backends)")
	seed := fs.Uint64("seed", 1, "random seed (mc / mc-qmc backends)")
	workers := fs.Int("workers", 0, "Monte-Carlo workers (mc and mc-qmc backends, 0 = all cores)")
	replicates := fs.Int("replicates", 0, "scrambled randomizations (mc-qmc backend, 0 = default 16)")
	cacheDir := cacheDirFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := errors.Join(sim.CheckTrials(*trials), sim.CheckWorkers(*workers)); err != nil {
		return err
	}
	b, err := engine.ParseBackend(*backend)
	if err != nil {
		return err
	}
	sess, err := g.start()
	if err != nil {
		return err
	}
	defer sess.finish(&err)
	inst, err := resolveInstance(fs, *n, *delta, *piStr)
	if err != nil {
		return err
	}
	var rule engine.Rule
	switch *kind {
	case "threshold":
		rule = engine.SymmetricThreshold{Beta: *param}
	case "oblivious":
		rule = engine.SymmetricOblivious{A: *param}
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	st, err := storeFor(*cacheDir, sess.observer)
	if err != nil {
		return err
	}
	cfg := sim.Config{Trials: *trials, Seed: *seed, Workers: *workers, Replicates: *replicates, Obs: sess.observer}
	eng := engine.New(engine.Config{Sim: cfg, Obs: sess.observer, Store: st})
	sp := sess.observer.StartSpan("eval")
	res, err := eng.Evaluate(inst, rule, b)
	sp.End()
	if err != nil {
		return err
	}
	if res.Backend == engine.MonteCarloQMC {
		fmt.Printf("%s %s(%g): P(win) = %.9f ± %.6f (mc-qmc, %d trials, %d replicates)\n",
			inst, *kind, *param, res.P, res.StdErr, res.Sim.Trials, res.Sim.Replicates)
	} else if res.Backend == engine.MonteCarlo {
		fmt.Printf("%s %s(%g): P(win) = %.9f ± %.6f (mc, %d trials)\n",
			inst, *kind, *param, res.P, res.StdErr, res.Sim.Trials)
	} else {
		fmt.Printf("%s %s(%g): P(win) = %.9f\n", inst, *kind, *param, res.P)
	}
	return nil
}

// cmdOptimize derives optima. Homogeneous threshold/oblivious instances
// keep the certified symbolic path (Sturm isolation / Theorem 4.3) with
// the engine-native numeric cross-check under -obs/-metrics; every other
// combination — heterogeneous instances, the full a-vector family — is
// searched numerically through engine.OptimizeCtx, sharing the memoization
// cache and span taxonomy with the HTTP service.
func cmdOptimize(g *obsFlags, args []string) (err error) {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	g.register(fs)
	n, delta := instanceFlags(fs)
	piStr := piFlag(fs)
	kind := fs.String("kind", "threshold", "algorithm kind: threshold, oblivious or vector")
	backend := fs.String("backend", "exact", "evaluation backend: exact, mc or auto")
	trials := fs.Int("trials", engine.DefaultTrials, "Monte-Carlo trials (mc backend)")
	seed := fs.Uint64("seed", 1, "random seed (mc backend)")
	workers := fs.Int("workers", 0, "Monte-Carlo workers (mc backend, 0 = all cores)")
	grid := fs.Int("grid", engine.DefaultOptimizeGrid, "scalar search grid resolution")
	tol := fs.Float64("tol", engine.DefaultOptimizeTol, "search tolerance")
	passes := fs.Int("passes", 0, "vector coordinate-ascent pass cap (0 = default)")
	verbose := fs.Bool("v", false, "print search-cost detail (evals, cache hits, line-profile probes)")
	cacheDir := cacheDirFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := errors.Join(sim.CheckTrials(*trials), sim.CheckWorkers(*workers)); err != nil {
		return err
	}
	b, err := engine.ParseBackend(*backend)
	if err != nil {
		return err
	}
	fam, err := engine.FamilyForKind(*kind)
	if err != nil {
		return fmt.Errorf("unknown kind %q (want threshold, oblivious or vector)", *kind)
	}
	sess, err := g.start()
	if err != nil {
		return err
	}
	defer sess.finish(&err)
	o := sess.observer
	inst, err := resolveInstance(fs, *n, *delta, *piStr)
	if err != nil {
		return err
	}
	st, err := storeFor(*cacheDir, o)
	if err != nil {
		return err
	}
	cfg := sim.Config{Trials: *trials, Seed: *seed, Workers: *workers, Obs: o}
	eng := engine.New(engine.Config{Sim: cfg, Obs: o, Store: st})
	opts := engine.OptimizeOptions{Backend: b, Sim: cfg, GridPoints: *grid, Tol: *tol, Passes: *passes}
	sp := o.StartSpan("optimize")
	defer sp.End()
	ctx := context.Background()
	if sp != nil {
		ctx = obs.ContextWithSpan(ctx, sp)
	}

	// Homogeneous scalar kinds keep the certified symbolic output.
	if !inst.Heterogeneous() && *kind == "threshold" {
		dr, ok := inst.DeltaRat()
		if !ok {
			return fmt.Errorf("capacity %v is not an exact rational; the certified optimum needs exact arithmetic", inst.Delta)
		}
		res, err := nonoblivious.OptimalSymmetric(inst.N, dr)
		if err != nil {
			return err
		}
		fmt.Printf("n=%d δ=%g optimal symmetric threshold:\n", inst.N, inst.Delta)
		fmt.Printf("  β* = %.12f\n  P* = %.12f\n", res.BetaFloat, res.WinProbabilityFloat)
		if !res.Condition.IsZero() {
			fmt.Printf("  optimality condition: %s = 0\n", res.Condition)
		}
		fmt.Printf("  P(β) pieces:\n")
		for i := 0; i < res.Curve.NumPieces(); i++ {
			piece, iv, err := res.Curve.Piece(i)
			if err != nil {
				return err
			}
			fmt.Printf("    [%s, %s]: %s\n", iv.Lo.RatString(), iv.Hi.RatString(), piece)
		}
		if o.Enabled() {
			// Numeric cross-check of the symbolic optimum, searched
			// through the engine (memo cache, optimize.* counters, the
			// engine.optimize span tree in the run log).
			num, err := eng.OptimizeCtx(ctx, inst, fam, opts)
			if err != nil {
				return err
			}
			fmt.Printf("  numeric cross-check: β ≈ %.9f, P ≈ %.9f (%d evals, %d iterations)\n",
				num.Params[0], num.Value, num.Evals, num.Iterations)
		}
		return nil
	}
	if !inst.Heterogeneous() && *kind == "oblivious" {
		res, err := oblivious.Optimal(inst.N, inst.Delta)
		if err != nil {
			return err
		}
		det, err := oblivious.OptimalDeterministic(inst.N, inst.Delta)
		if err != nil {
			return err
		}
		fmt.Printf("n=%d δ=%g optimal oblivious (Theorem 4.3, symmetric): α* = 1/2, P* = %.9f\n",
			inst.N, inst.Delta, res.WinProbability)
		fmt.Printf("  deterministic vertex optimum: %d players to bin 1, P = %.9f\n",
			det.Bin1Count, det.WinProbability)
		if o.Enabled() {
			num, err := eng.OptimizeCtx(ctx, inst, fam, opts)
			if err != nil {
				return err
			}
			fmt.Printf("  numeric cross-check: a ≈ %.9f, P ≈ %.9f (%d evals, %d iterations)\n",
				num.Params[0], num.Value, num.Evals, num.Iterations)
		}
		return nil
	}

	// Engine-native numeric search: the vector family, and scalar kinds on
	// heterogeneous instances (no symbolic path exists there).
	res, err := eng.OptimizeCtx(ctx, inst, fam, opts)
	if err != nil {
		return err
	}
	switch *kind {
	case "vector":
		fmt.Printf("%s optimal threshold vector (%s backend):\n", inst, res.Backend)
		fmt.Printf("  a* = (%s)\n", formatVector(res.Params))
		fmt.Printf("  P* = %.9f\n", res.Value)
		sym, err := eng.OptimizeCtx(ctx, inst, engine.ThresholdBetaFamily{}, opts)
		if err != nil {
			return err
		}
		departure := 0.0
		for _, a := range res.Params {
			departure = math.Max(departure, math.Abs(a-sym.Params[0]))
		}
		fmt.Printf("  symmetric best: β* = %.9f, P = %.9f (departure max|a_i−β*| = %.3e)\n",
			sym.Params[0], sym.Value, departure)
	case "threshold":
		fmt.Printf("%s optimal symmetric threshold (%s backend):\n", inst, res.Backend)
		fmt.Printf("  β* = %.9f\n  P* = %.9f\n", res.Params[0], res.Value)
	case "oblivious":
		fmt.Printf("%s optimal symmetric oblivious (%s backend):\n", inst, res.Backend)
		fmt.Printf("  α* = %.9f\n  P* = %.9f\n", res.Params[0], res.Value)
	}
	fmt.Printf("  search: %d evals (%d cached), %d iterations\n", res.Evals, res.CacheHits, res.Iterations)
	if *verbose {
		fmt.Printf("  search detail: optimize.evals=%d optimize.cache_hits=%d exact.delta.updates=%d\n",
			res.Evals, res.CacheHits, res.DeltaUpdates)
	}
	if res.Degraded {
		fmt.Printf("  degraded: deadline struck mid-search; best point so far\n")
	}
	if *kind == "vector" && res.Backend == engine.Exact && inst.N <= nonoblivious.MaxNExact {
		// A posteriori certification: re-evaluate the float optimum with
		// the big.Rat oracle and require agreement within the documented
		// forward-error bound.
		exact, bound, err := nonoblivious.CertifyThresholds(res.Params, inst.Pi, inst.Delta)
		if err != nil {
			return err
		}
		diff := math.Abs(res.Value - exact)
		fmt.Printf("  certificate: |P* − exact| = %.3e ≤ %.3e (big.Rat oracle)\n", diff, bound)
		if diff > bound {
			return fmt.Errorf("certification failed: |%.17g − %.17g| exceeds the error bound %g", res.Value, exact, bound)
		}
	}
	return nil
}

// formatVector renders a parameter vector at reporting precision.
func formatVector(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.9f", v)
	}
	return strings.Join(parts, ", ")
}

func cmdSimulate(g *obsFlags, args []string) (err error) {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	g.register(fs)
	n, delta := instanceFlags(fs)
	piStr := piFlag(fs)
	kind := fs.String("kind", "threshold", "algorithm kind: threshold, oblivious, or feasibility")
	param := fs.Float64("param", 0.5, "algorithm parameter")
	trials := fs.Int("trials", 1_000_000, "number of Monte-Carlo trials")
	seed := fs.Uint64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "Monte-Carlo workers (0 = all cores)")
	checkpointEvery := fs.Int("checkpoint-every", 0, "convergence checkpoint interval in trials (0 = trials/20; needs -obs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := sim.CheckWorkers(*workers); err != nil {
		return err
	}
	sess, err := g.start()
	if err != nil {
		return err
	}
	defer sess.finish(&err)
	inst, err := resolveInstance(fs, *n, *delta, *piStr)
	if err != nil {
		return err
	}
	cfg := sim.Config{
		Trials: *trials, Seed: *seed, Workers: *workers,
		Obs: sess.observer, CheckpointEvery: *checkpointEvery,
	}
	var res sim.Result
	switch *kind {
	case "threshold", "oblivious":
		var rule engine.Rule = engine.SymmetricThreshold{Beta: *param}
		if *kind == "oblivious" {
			rule = engine.SymmetricOblivious{A: *param}
		}
		sys, serr := rule.System(inst)
		if serr != nil {
			return serr
		}
		res, err = sim.WinProbability(sys, cfg)
	case "feasibility":
		res, err = sim.FeasibilityProbability(inst, cfg)
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s %s(%g): P = %.6f ± %.6f (95%% CI [%.6f, %.6f], %d trials)\n",
		inst, *kind, *param, res.P, res.StdErr, res.CILo, res.CIHi, res.Trials)
	return nil
}

func cmdFigure(g *obsFlags, args []string) (err error) {
	if len(args) == 0 {
		return fmt.Errorf("figure needs an id (F1, F2, F3) or alias (thresholds, coins, crossover)")
	}
	id := args[0]
	fs := flag.NewFlagSet("figure", flag.ContinueOnError)
	g.register(fs)
	points := fs.Int("points", 201, "sweep points per curve")
	backend := fs.String("backend", "auto", "evaluation backend: exact, mc, mc-qmc or auto")
	trials := fs.Int("trials", engine.DefaultTrials, "Monte-Carlo trials per point (mc backend)")
	seed := fs.Uint64("seed", 1, "random seed (mc backend)")
	workers := fs.Int("workers", 0, "sweep and Monte-Carlo workers (0 = all cores)")
	svgPath := fs.String("svg", "", "write SVG to this path")
	csvPath := fs.String("csv", "", "write CSV to this path")
	cacheDir := cacheDirFlag(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if err := errors.Join(sim.CheckTrials(*trials), sim.CheckWorkers(*workers)); err != nil {
		return err
	}
	b, err := engine.ParseBackend(*backend)
	if err != nil {
		return err
	}
	sess, err := g.start()
	if err != nil {
		return err
	}
	defer sess.finish(&err)
	exp, err := harness.Lookup(id)
	if err != nil {
		return err
	}
	if exp.Kind != harness.KindFigure {
		return fmt.Errorf("%s is not a figure", id)
	}
	p := harness.Params{
		Points:  *points,
		Sim:     sim.Config{Trials: *trials, Seed: *seed, Workers: *workers},
		Backend: b,
	}
	if *cacheDir != "" {
		st, err := storeFor(*cacheDir, sess.observer)
		if err != nil {
			return err
		}
		p.Engine = engine.New(engine.Config{Sim: p.Sim, Obs: sess.observer, Store: st})
	}
	out, err := exp.Run(sess.observer, p)
	if err != nil {
		return err
	}
	fig := *out.Figure
	ascii, err := fig.ASCII(0, 0)
	if err != nil {
		return err
	}
	fmt.Println(ascii)
	if *svgPath != "" {
		svg, err := fig.SVG(0, 0)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
			return fmt.Errorf("writing SVG: %w", err)
		}
		fmt.Println("wrote", *svgPath)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fmt.Errorf("creating CSV: %w", err)
		}
		defer f.Close()
		if err := fig.WriteCSV(f); err != nil {
			return err
		}
		fmt.Println("wrote", *csvPath)
	}
	return nil
}

func cmdTable(g *obsFlags, args []string) (err error) {
	if len(args) == 0 {
		return fmt.Errorf("table needs an id (T1..T11, V1) or alias (oblivious, case-n3, tradeoff, hetero, ...)")
	}
	id := args[0]
	fs := flag.NewFlagSet("table", flag.ContinueOnError)
	g.register(fs)
	trials := fs.Int("trials", 200_000, "Monte-Carlo trials for simulated columns")
	seed := fs.Uint64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "Monte-Carlo and sweep workers (0 = all cores)")
	backend := fs.String("backend", "auto", "evaluation backend: exact, mc, mc-qmc or auto")
	piStr := fs.String("pi", "", "comma-separated per-player input ranges π_i (experiments that accept heterogeneous instances, e.g. T10)")
	csvPath := fs.String("csv", "", "write CSV to this path")
	cacheDir := cacheDirFlag(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if err := errors.Join(sim.CheckTrials(*trials), sim.CheckWorkers(*workers)); err != nil {
		return err
	}
	b, err := engine.ParseBackend(*backend)
	if err != nil {
		return err
	}
	pi, err := problem.ParsePi(*piStr)
	if err != nil {
		return err
	}
	sess, err := g.start()
	if err != nil {
		return err
	}
	defer sess.finish(&err)
	exp, err := harness.Lookup(id)
	if err != nil {
		return err
	}
	if exp.Kind != harness.KindTable {
		return fmt.Errorf("%s is not a table", id)
	}
	p := harness.Params{
		Sim:     sim.Config{Trials: *trials, Seed: *seed, Workers: *workers},
		Backend: b,
		Pi:      pi,
	}
	if *cacheDir != "" {
		st, err := storeFor(*cacheDir, sess.observer)
		if err != nil {
			return err
		}
		p.Engine = engine.New(engine.Config{Sim: p.Sim, Obs: sess.observer, Store: st})
	}
	out, err := exp.Run(sess.observer, p)
	if err != nil {
		return err
	}
	tab := *out.Table
	text, err := tab.Render()
	if err != nil {
		return err
	}
	fmt.Println(text)
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fmt.Errorf("creating CSV: %w", err)
		}
		defer f.Close()
		if err := tab.WriteCSV(f); err != nil {
			return err
		}
		fmt.Println("wrote", *csvPath)
	}
	return nil
}

// cmdCertify produces the exact-arithmetic certificates for both of the
// paper's optimality theorems on one instance: the Sturm-certified
// symmetric oblivious maximum at α = 1/2 (Theorem 4.3) and the certified
// optimal threshold with its optimality condition (Section 5.2).
func cmdCertify(g *obsFlags, args []string) (err error) {
	fs := flag.NewFlagSet("certify", flag.ContinueOnError)
	g.register(fs)
	n, delta := instanceFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, err := g.start()
	if err != nil {
		return err
	}
	defer sess.finish(&err)
	inst, err := problem.New(*n, *delta)
	if err != nil {
		return err
	}
	dr, ok := inst.DeltaRat()
	if !ok {
		return fmt.Errorf("capacity %v is not an exact rational; certificates need exact arithmetic", *delta)
	}
	root := sess.observer.StartSpan("certify")
	defer root.End()
	sp := root.Child("oblivious")
	cert, err := oblivious.CertifyHalfOptimal(*n, dr)
	sp.End()
	if err != nil {
		return err
	}
	fmt.Printf("Theorem 4.3 certificate (n=%d, δ=%s):\n", *n, dr.RatString())
	fmt.Printf("  symmetric curve P(a) = %s\n", cert.Curve)
	fmt.Printf("  a=1/2 critical: %v; maximal among critical points: %v (interior critical points: %d)\n",
		cert.HalfIsCritical, cert.HalfIsMaximum, cert.InteriorCritical)
	fmt.Printf("  P(1/2) = %s\n\n", cert.HalfValue.RatString())

	sp = root.Child("threshold")
	thr, err := nonoblivious.OptimalSymmetric(*n, dr)
	sp.End()
	if err != nil {
		return err
	}
	fmt.Printf("Section 5.2 certificate (n=%d, δ=%s):\n", *n, dr.RatString())
	fmt.Printf("  β* ∈ [%s..] width ≤ 2^-80, midpoint %.12f\n",
		truncateRat(thr.Beta.Lo.RatString(), 24), thr.BetaFloat)
	fmt.Printf("  P* = %.12f\n", thr.WinProbabilityFloat)
	if !thr.Condition.IsZero() {
		fmt.Printf("  optimality condition (monic): %s = 0\n",
			nonoblivious.PolyFromCondition(thr.Condition))
		resid, err := nonoblivious.OptimalityResidual(*n, dr, thr.Beta.Mid())
		if err != nil {
			return err
		}
		rf, _ := resid.Float64()
		fmt.Printf("  dP/dβ at enclosure midpoint: %.3e (Theorem 5.2 residual)\n", rf)
	}
	return nil
}

// cmdMetrics replays a JSONL run log written via -obs into a
// human-readable summary: span table, final metric values, convergence
// traces, and recorded errors.
func cmdMetrics(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("metrics needs a run log path (e.g. nocomm metrics run.jsonl)")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return fmt.Errorf("opening run log: %w", err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("%s contains no observability events", args[0])
	}
	fmt.Print(obs.Summarize(events).Render())
	return nil
}

func truncateRat(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

func cmdList() error {
	fmt.Println("experiments:")
	for _, id := range harness.IDs() {
		e, err := harness.Lookup(id)
		if err != nil {
			return err
		}
		kind := "table "
		if e.Kind == harness.KindFigure {
			kind = "figure"
		}
		fmt.Printf("  %-3s %s  %s\n", e.ID, kind, e.Title)
	}
	return nil
}
