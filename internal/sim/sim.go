// Package sim is the Monte-Carlo engine used to validate every analytic
// result in the reproduction: it estimates winning probabilities of
// arbitrary decision systems (Theorems 4.1 and 5.1), the omniscient
// feasibility upper bound, and sample statistics of bin loads, with
// deterministic seeding and parallel workers.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/stats"
)

// ErrRuleFailed classifies simulation failures caused by a player's rule
// (or input sampler) returning an error mid-trial, as opposed to invalid
// configuration. Callers and the observability event sink use
// errors.Is(err, ErrRuleFailed) to tell the two apart; the original cause
// stays in the chain.
var ErrRuleFailed = errors.New("trial failed")

// defaultCheckpoints is the number of convergence checkpoints emitted per
// run when Config.CheckpointEvery is left zero.
const defaultCheckpoints = 20

// batchSize is how many trials the batched kernel samples and plays per
// iteration. Large enough to amortize the per-batch bookkeeping, small
// enough that the scratch buffers stay L1/L2-resident for the paper's
// player counts.
const batchSize = 256

// Config controls a simulation run.
type Config struct {
	// Trials is the total number of rounds to play. Must be positive.
	Trials int
	// Workers is the number of parallel workers; 0 selects GOMAXPROCS.
	// Results are deterministic for a fixed (Seed, Workers) pair: each
	// worker owns an independent, seeded PCG stream.
	Workers int
	// Seed seeds the per-worker random streams.
	Seed uint64
	// Obs optionally instruments the run: sim.trials / sim.wins /
	// sim.rng_draws counters, per-worker throughput gauges, nested
	// run → worker spans, and a convergence checkpoint trace. A nil
	// Observer adds no instrumentation work: no RNG indirection, spans,
	// clocks or checkpoints, only a nil check per trial on the per-trial
	// path and per batch on the batched path.
	Obs *obs.Observer
	// CheckpointEvery emits one convergence checkpoint (running estimate
	// + Wilson CI) every k trials when Obs is enabled. 0 picks
	// Trials/defaultCheckpoints; ignored without Obs.
	CheckpointEvery int
	// Replicates is the number of independently scrambled randomizations
	// the quasi-Monte-Carlo path (WinProbabilityQMC) averages to form its
	// estimate and standard error; 0 selects DefaultReplicates. Ignored by
	// the pseudo-random paths.
	Replicates int
}

func (c Config) validate() (Config, error) {
	if err := CheckTrials(c.Trials); err != nil {
		return c, err
	}
	if c.CheckpointEvery < 0 {
		return c, fmt.Errorf("sim: checkpoint interval %d must be non-negative", c.CheckpointEvery)
	}
	w, err := WorkerCount(c.Workers, c.Trials)
	if err != nil {
		return c, err
	}
	c.Workers = w
	return c, nil
}

// CheckTrials refuses a non-positive trial count. Config validation and
// the CLI -trials flags share it, so a bad count is refused with the same
// wording on every path instead of being read as "use the default".
func CheckTrials(trials int) error {
	if trials <= 0 {
		return fmt.Errorf("sim: trial count %d must be positive", trials)
	}
	return nil
}

// CheckWorkers refuses a negative worker count, with WorkerCount's
// wording, so the CLI -workers flags refuse it up front on every backend.
func CheckWorkers(workers int) error {
	if workers < 0 {
		return fmt.Errorf("sim: worker count %d must be non-negative", workers)
	}
	return nil
}

// WorkerCount resolves a requested parallel worker count against the
// repo-wide policy: 0 selects the default of runtime.GOMAXPROCS(0),
// negative counts are rejected, and a positive jobs bound clamps the count
// so no worker sits idle (jobs ≤ 0 means "unbounded"). Every parallel
// fan-out — sim.Config and engine.Sweep, and through them the CLI
// -workers flags — routes through this one helper
// so defaulting and clamping cannot drift between layers again.
func WorkerCount(requested, jobs int) (int, error) {
	if err := CheckWorkers(requested); err != nil {
		return 0, err
	}
	w := requested
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if jobs > 0 && w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w, nil
}

// workerSource derives worker w's independent random stream.
func (c Config) workerSource(w int) *rand.PCG {
	// SplitMix-style stream separation: distinct, well-mixed PCG seeds.
	s := c.Seed + 0x9e3779b97f4a7c15*uint64(w+1)
	s ^= s >> 30
	s *= 0xbf58476d1ce4e5b9
	return rand.NewPCG(s, s^0x94d049bb133111eb)
}

func (c Config) workerRNG(w int) *rand.Rand {
	return rand.New(c.workerSource(w))
}

// countingSource wraps a rand.Source to count draws for the sim.rng_draws
// counter of per-trial runs, whose trials draw a variable number of
// values; it is only interposed when observability is enabled, so the
// plain path never pays the indirection.
type countingSource struct {
	src rand.Source
	n   int64
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

// Result summarizes a Bernoulli estimate (winning or feasibility
// probability).
type Result struct {
	// P is the estimated probability.
	P float64
	// StdErr is the binomial standard error on the pseudo-random paths,
	// or the randomized-replicate standard error on the QMC path.
	StdErr float64
	// CILo and CIHi bound the 95% confidence interval: Wilson for the
	// pseudo-random paths, Student-t over replicate means for QMC.
	CILo, CIHi float64
	// Wins and Trials are the raw counts.
	Wins, Trials int64
	// Replicates is the number of QMC randomizations averaged; 0 on the
	// pseudo-random paths.
	Replicates int
}

func resultFrom(p stats.Proportion) (Result, error) {
	lo, hi, err := p.WilsonCI(1.96)
	if err != nil {
		return Result{}, err
	}
	return Result{
		P:      p.Estimate(),
		StdErr: p.StdErr(),
		CILo:   lo,
		CIHi:   hi,
		Wins:   p.Successes(),
		Trials: p.Trials(),
	}, nil
}

// trialFunc plays one round and reports success.
type trialFunc func(rng *rand.Rand) (bool, error)

// trialFactory builds worker w's trial function. It runs inside the
// worker goroutine, so the returned closure may own scratch buffers
// (input vectors, reusable Outcomes) without any cross-worker sharing.
type trialFactory func(w int) trialFunc

// wrapTrialErr classifies a mid-trial failure under ErrRuleFailed while
// keeping the cause in the chain.
func wrapTrialErr(err error) error {
	return fmt.Errorf("sim: %w: %w", ErrRuleFailed, err)
}

// runLabeled runs a worker body under a pprof goroutine label so
// -cpuprofile output attributes hot-loop samples per sim worker.
func runLabeled(w int, body func()) {
	pprof.Do(context.Background(), pprof.Labels("sim_worker", strconv.Itoa(w)), func(context.Context) {
		body()
	})
}

// splitQuota returns worker w's share of the trial budget.
func splitQuota(trials, workers, w int) int {
	quota := trials / workers
	if w < trials%workers {
		quota++
	}
	return quota
}

// runBernoulli fans per-trial rounds out over workers and merges the
// counts. This is the generic path: the batched kernel in runBatch handles
// systems whose rules all implement model.BatchRule.
//
// With observability enabled (cfg.Obs) the run also opens a root span
// labelled name with one child span per worker, counts RNG draws, sets
// per-worker throughput gauges, and emits a convergence checkpoint every
// cfg.CheckpointEvery trials. Seeding and per-worker quotas are the same
// either way, so results are bit-identical with and without observability.
func runBernoulli(cfg Config, name string, newTrial trialFactory) (Result, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return Result{}, err
	}
	o := cfg.Obs
	root := o.StartSpan("sim." + name)
	defer root.End()
	var ck *checkpointer
	if o.Enabled() {
		ck = newCheckpointer(cfg, o)
	}
	counters := make([]stats.Proportion, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var rngDraws atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w, quota int) {
			defer wg.Done()
			runLabeled(w, func() {
				trial := newTrial(w)
				done := ck.startWorker(root, w, &rngDraws)
				counting := &countingSource{src: cfg.workerSource(w)}
				var src rand.Source = counting
				if ck == nil {
					src = counting.src
				}
				rng := rand.New(src)
				for i := 0; i < quota; i++ {
					ok, err := trial(rng)
					if err != nil {
						errs[w] = err
						break
					}
					counters[w].Add(ok)
					if ck != nil {
						ck.record(ok)
					}
				}
				done(counters[w].Trials(), counting.n)
			})
		}(w, splitQuota(cfg.Trials, cfg.Workers, w))
	}
	wg.Wait()
	return finish(o, counters, errs, rngDraws.Load())
}

// checkpointer carries the shared convergence-trace state of an observed
// run: atomic live counts and the checkpoint cadence. Both the per-trial
// and the batched paths record through it trial by trial, so the
// checkpoint stream is identical between them.
type checkpointer struct {
	o          *obs.Observer
	every      int64
	estHist    *obs.Histogram
	liveTrials atomic.Int64
	liveWins   atomic.Int64
	// mu, turn and emitted keep the stream in trial order across workers:
	// the trial that crosses a boundary waits until the previous boundary
	// has been emitted.
	mu      sync.Mutex
	turn    *sync.Cond
	emitted int64
}

func newCheckpointer(cfg Config, o *obs.Observer) *checkpointer {
	every := int64(cfg.CheckpointEvery)
	if every == 0 {
		every = int64(cfg.Trials / defaultCheckpoints)
		if every < 1 {
			every = 1
		}
	}
	ck := &checkpointer{o: o, every: every, estHist: o.Histogram("sim.estimate", 0, 1, 20)}
	ck.turn = sync.NewCond(&ck.mu)
	return ck
}

// startWorker opens worker w's observation scope. In an observed run (ck
// non-nil) it starts a worker[w] child span of root, and the returned done
// ends the span, adds the worker's RNG draw count to draws and sets its
// throughput gauge; otherwise done does nothing.
func (ck *checkpointer) startWorker(root *obs.Span, w int, draws *atomic.Int64) (done func(trials, rngDraws int64)) {
	if ck == nil {
		return func(int64, int64) {}
	}
	sp := root.Child(fmt.Sprintf("worker[%d]", w))
	start := time.Now()
	return func(trials, rngDraws int64) {
		draws.Add(rngDraws)
		if el := time.Since(start).Seconds(); el > 0 && trials > 0 {
			ck.o.Gauge(fmt.Sprintf("sim.worker.%d.trials_per_sec", w)).Set(float64(trials) / el)
		}
		sp.End()
	}
}

// record accounts one finished trial and emits a checkpoint whenever the
// global trial count crosses a cadence boundary.
func (c *checkpointer) record(win bool) {
	if win {
		c.liveWins.Add(1)
	}
	nt := c.liveTrials.Add(1)
	if nt%c.every != 0 {
		return
	}
	c.mu.Lock()
	for c.emitted != nt-c.every {
		c.turn.Wait()
	}
	emitCheckpoint(c.o, c.liveWins.Load(), nt, c.estHist)
	c.emitted = nt
	c.turn.Broadcast()
	c.mu.Unlock()
}

// finish merges worker counters into the final Result and flushes the
// run-level counters (no-ops without an observer).
func finish(o *obs.Observer, counters []stats.Proportion, errs []error, rngDraws int64) (Result, error) {
	o.Counter("sim.runs").Inc()
	o.Counter("sim.rng_draws").Add(rngDraws)
	var total stats.Proportion
	for _, c := range counters {
		total.Merge(c)
	}
	o.Counter("sim.trials").Add(total.Trials())
	o.Counter("sim.wins").Add(total.Successes())
	for _, err := range errs {
		if err != nil {
			err = wrapTrialErr(err)
			o.EmitError("sim.trial", err)
			return Result{}, err
		}
	}
	return resultFrom(total)
}

// runBatch is the allocation-free fast path: each worker samples and
// plays batchSize trials per kernel call from pooled scratch buffers —
// no per-trial slices, no per-player interface dispatch. Seeding and
// per-worker quotas match runBernoulli exactly, and the kernel preserves
// the per-trial RNG draw order, so results are bit-identical to the
// per-trial path for a fixed (Seed, Workers) pair. Observability works as
// in runBernoulli: worker counters update at batch granularity, while the
// checkpointer replays each batch's per-trial win flags so the checkpoint
// stream (cadence and values) is identical to the per-trial path.
func runBatch(cfg Config, name string, k *model.BatchKernel) (Result, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return Result{}, err
	}
	o := cfg.Obs
	root := o.StartSpan("sim." + name)
	defer root.End()
	var ck *checkpointer
	if o.Enabled() {
		ck = newCheckpointer(cfg, o)
	}
	counters := make([]stats.Proportion, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var rngDraws atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w, quota int) {
			defer wg.Done()
			runLabeled(w, func() {
				done := ck.startWorker(root, w, &rngDraws)
				errs[w] = batchWorker(k, cfg.workerSource(w), quota, ck, &counters[w])
				// Every batched trial draws exactly k.Dims() values.
				trials := counters[w].Trials()
				done(trials, trials*int64(k.Dims()))
			})
		}(w, splitQuota(cfg.Trials, cfg.Workers, w))
	}
	wg.Wait()
	return finish(o, counters, errs, rngDraws.Load())
}

// batchWorker plays a worker's quota of trials through the kernel from
// pooled scratch, drawing from pcg and accumulating wins into out; a
// non-nil checkpointer records every trial for the convergence trace.
func batchWorker(k *model.BatchKernel, pcg *rand.PCG, quota int, ck *checkpointer, out *stats.Proportion) error {
	sc := model.GetBatchScratch()
	defer sc.Release()
	var wins, trials int64
	for done := 0; done < quota; {
		b := batchSize
		if quota-done < b {
			b = quota - done
		}
		wins += int64(k.Play(sc, pcg, b))
		trials += int64(b)
		done += b
		if ck != nil {
			for _, win := range sc.Wins()[:b] {
				ck.record(win)
			}
		}
	}
	return out.AddN(wins, trials)
}

// emitCheckpoint records one point of the convergence trace: the running
// estimate with its Wilson interval at nt trials. Counter reads race
// benignly with concurrent workers (the trace is diagnostic, the final
// Result is exact), so the win count is clamped into [0, nt].
func emitCheckpoint(o *obs.Observer, wins, nt int64, estHist *obs.Histogram) {
	if wins > nt {
		wins = nt
	}
	var p stats.Proportion
	if err := p.AddN(wins, nt); err != nil {
		return
	}
	est := p.Estimate()
	lo, hi, err := p.WilsonCI(1.96)
	if err != nil {
		return
	}
	estHist.Observe(est)
	o.Emit(obs.Event{
		Type: obs.EventCheckpoint,
		Name: "sim.convergence",
		Attrs: map[string]float64{
			"trials":   float64(nt),
			"wins":     float64(wins),
			"estimate": est,
			"ci_lo":    lo,
			"ci_hi":    hi,
		},
	})
}

// WinProbability estimates the winning probability P_A(δ) of the system by
// playing cfg.Trials independent rounds. Systems whose rules all implement
// model.BatchRule (threshold, oblivious-coin and interval-set rules) run
// through the allocation-free batched kernel; everything else takes the
// per-trial path with per-worker reusable buffers. Both paths draw the
// same RNG sequence, so the estimate for a fixed (Seed, Workers) pair does
// not depend on which one runs.
func WinProbability(sys *model.System, cfg Config) (Result, error) {
	if sys == nil {
		return Result{}, fmt.Errorf("sim: nil system")
	}
	if k, ok := model.NewBatchKernel(sys); ok {
		return runBatch(cfg, "win_probability", k)
	}
	return runBernoulli(cfg, "win_probability", func(int) trialFunc {
		inputs := make([]float64, sys.N())
		var out model.Outcome
		return func(rng *rand.Rand) (bool, error) {
			if err := sys.SampleInputsInto(inputs, rng); err != nil {
				return false, err
			}
			if err := sys.PlayInto(&out, inputs, rng); err != nil {
				return false, err
			}
			return out.Win, nil
		}
	})
}

// FeasibilityProbability estimates the probability that SOME assignment
// of the instance's inputs (x_i uniform on [0, π_i]) to the two bins
// keeps both within capacity — the omniscient full-information benchmark
// that upper-bounds every distributed algorithm.
func FeasibilityProbability(inst problem.Instance, cfg Config) (Result, error) {
	if err := inst.Validate(); err != nil {
		return Result{}, err
	}
	if inst.N > 30 {
		return Result{}, fmt.Errorf("sim: feasibility limited to 30 players, got %d", inst.N)
	}
	widths := inst.Widths()
	return runBernoulli(cfg, "feasibility", func(int) trialFunc {
		inputs := make([]float64, inst.N)
		return func(rng *rand.Rand) (bool, error) {
			if widths == nil {
				for i := range inputs {
					inputs[i] = rng.Float64()
				}
			} else {
				for i := range inputs {
					inputs[i] = rng.Float64() * widths[i]
				}
			}
			return model.FeasibleAssignmentExists(inputs, inst.Delta)
		}
	})
}

// LoadStats simulates the system and returns running statistics of the
// value extracted from each outcome by metric (for example the bin-0 load
// or the maximum load).
func LoadStats(sys *model.System, cfg Config, metric func(model.Outcome) float64) (stats.Running, error) {
	if sys == nil {
		return stats.Running{}, fmt.Errorf("sim: nil system")
	}
	if metric == nil {
		return stats.Running{}, fmt.Errorf("sim: nil metric")
	}
	cfg, err := cfg.validate()
	if err != nil {
		return stats.Running{}, err
	}
	root := cfg.Obs.StartSpan("sim.load_stats")
	defer root.End()
	accs := make([]stats.Running, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w, quota int) {
			defer wg.Done()
			runLabeled(w, func() {
				rng := cfg.workerRNG(w)
				inputs := make([]float64, sys.N())
				var out model.Outcome
				for i := 0; i < quota; i++ {
					if err := sys.SampleInputsInto(inputs, rng); err != nil {
						errs[w] = err
						return
					}
					if err := sys.PlayInto(&out, inputs, rng); err != nil {
						errs[w] = err
						return
					}
					accs[w].Add(metric(out))
				}
			})
		}(w, splitQuota(cfg.Trials, cfg.Workers, w))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			err = wrapTrialErr(err)
			cfg.Obs.EmitError("sim.trial", err)
			return stats.Running{}, err
		}
	}
	var total stats.Running
	for _, a := range accs {
		total.Merge(a)
	}
	cfg.Obs.Counter("sim.trials").Add(total.N())
	return total, nil
}

// Bernoulli estimates the success probability of an arbitrary trial
// function by playing cfg.Trials independent rounds across seeded parallel
// workers — the same deterministic fan-out that backs WinProbability and
// FeasibilityProbability, exported so higher layers (the evaluation engine,
// protocol simulators) can run custom trials without re-implementing the
// worker pool. name labels the run's root span when observability is on.
func Bernoulli(cfg Config, name string, trial func(rng *rand.Rand) (bool, error)) (Result, error) {
	if trial == nil {
		return Result{}, fmt.Errorf("sim: nil trial function")
	}
	if name == "" {
		name = "bernoulli"
	}
	return runBernoulli(cfg, name, func(int) trialFunc { return trial })
}
