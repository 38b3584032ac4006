package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"time"
)

// sizes fixes how much work each workload does. The benchmark runs with
// defaultSizes; tests shrink them.
type sizes struct {
	hotKeys     int           // distinct keys behind eval-hot and eval-restart
	setupReps   int           // minimum set-ups per run; setup_s is their median
	setupBudget time.Duration // more set-ups while they took less than this in total
	optimize    optimizeSizes
	coldSample  int      // eval-cold requests re-checked against a store-less engine
	reproTrials int      // Monte-Carlo trials per simulated cell (reproduce)
	reproPoints int      // figure resolution (reproduce)
	reproIDs    []string // experiments of a pass; nil = the whole registry
	recheckSkip []string // experiments too slow to run twice in the determinism check
	probeScale  float64  // repetitions of a traced invocation's layer probes
}

// defaultSizes are the benchmark's workload sizes. The reproduce pass uses
// the `experiments` CLI defaults (400k trials, 201 points).
func defaultSizes() sizes {
	return sizes{
		hotKeys:     512,
		setupReps:   3,
		setupBudget: 250 * time.Millisecond,
		optimize:    defaultOptimizeSizes,
		coldSample:  64,
		reproTrials: 400_000,
		reproPoints: 201,
		recheckSkip: []string{"T5", "T6"},
		probeScale:  1,
	}
}

// env is one workload run's configuration.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	work    string // per-run working directory
	sz      sizes
	tr      *tracer // non-nil in traced runs
}

// deadline returns the end of a measured phase lasting frac of the run.
func (e *env) deadline(frac float64) time.Time {
	return time.Now().Add(time.Duration(frac * e.seconds * float64(time.Second)))
}

// measured returns the end of the untraced measured phase: the whole run,
// or its first half when the second half replays it traced.
func (e *env) measured() time.Time {
	if e.trace {
		return e.deadline(0.5)
	}
	return e.deadline(1)
}

// dir creates a fresh, empty directory under the run's working directory.
func (e *env) dir(prefix string) (string, error) {
	return os.MkdirTemp(e.work, prefix+"-")
}

// outcome is what one workload run measured.
type outcome struct {
	m        *meter       // CPU time and reference jobs of the run
	setup    []stretch    // one per set-up repetition
	lat      samples      // per-op latency of the measured phase, seconds
	heapLive float64      // bytes, see heapQuantile
	heap     *heapSampler // running while the heap is sampled
	tailQ    float64      // quantile of the latency tail the report prints

	ops, failedOps       int
	checks, failedChecks int
	failures             []string // first few failure descriptions

	layers map[string]float64 // per-layer metrics of a traced run
	notes  []string           // extra lines for the human-readable report
}

// maxSamples bounds the latencies an untraced recorder keeps.
const maxSamples = 1 << 16

// samples records per-op latencies. Untraced runs keep every latency until
// maxSamples, then a uniform reservoir of that size, so the benchmark's
// own memory — which heap_p90_mb would count — stays the same whatever
// the throughput. Traced runs keep every latency, aligned with the ops
// they replay.
type samples struct {
	n   int       // ops recorded
	v   []float64 // kept latencies
	rng *rand.Rand
}

// newSamples returns a recorder; keepAll disables the reservoir.
func newSamples(keepAll bool, stream uint64) samples {
	if keepAll {
		return samples{}
	}
	return samples{v: make([]float64, 0, maxSamples), rng: newRNG(1, stream)}
}

func (s *samples) add(x float64) {
	s.n++
	if s.rng == nil || len(s.v) < maxSamples {
		s.v = append(s.v, x)
		return
	}
	if j := s.rng.IntN(s.n); j < maxSamples {
		s.v[j] = x
	}
}

// fail records one failed op.
func (o *outcome) fail(format string, args ...any) {
	o.failedOps++
	o.describe(format, args...)
}

// check records one correctness check and its verdict.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.checks++
	if !ok {
		o.failedChecks++
		o.describe(format, args...)
	}
}

// describe keeps the description of a failure counted elsewhere.
func (o *outcome) describe(format string, args ...any) {
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// maxSetupReps caps the set-ups of one run.
const maxSetupReps = 1000

// timeSetups repeats setup and times each repetition (see meter); the
// last set-up is the one the workload then measures. It runs at least
// sz.setupReps set-ups, and more while they took less than sz.setupBudget
// of wall time in total, so a set-up of a second is measured as a median
// of a few and one of a fraction of a millisecond as a median of hundreds.
// before, when non-nil, runs untimed ahead of each repetition: it releases
// the previous repetition's state and prepares what the set-up is handed,
// such as an empty directory. No garbage collection is forced between
// repetitions: a set-up that starts on a freshly collected heap allocates
// from new spans, and that made sub-millisecond set-ups two to three times
// slower and their median less steady; the few repetitions a collection
// lands in fall outside the median.
func (o *outcome) timeSetups(sz sizes, before func() error, setup func() error) error {
	spent := 0.0
	for i := 0; i < maxSetupReps && (i < sz.setupReps || spent < sz.setupBudget.Seconds()); i++ {
		if before != nil {
			if err := before(); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		if o.m.due() {
			o.m.sample()
		}
		s, err := o.m.timeStretch(setup)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		spent += s.wall
		o.setup = append(o.setup, s)
	}
	return nil
}

// measure times a closed-loop phase, sampling the live heap while it runs
// or until the phase calls stopHeap. The phase calls tick between
// operations, so that the reference job runs every refInterval.
func (o *outcome) measure(phase func() error) error {
	o.heap = startHeapSampler()
	o.m.begin()
	err := phase()
	o.m.end()
	o.stopHeap()
	return err
}

// tick runs the reference job between operations when it is due.
func (o *outcome) tick() { o.m.tick() }

// stopHeap ends heap sampling early. Workloads whose server keeps every
// distinct answer call it after a fixed amount of work, so heap_p90_mb
// measures the same work on a fast machine as on a slow one instead of
// growing with throughput.
func (o *outcome) stopHeap() {
	if o.heap != nil {
		o.heapLive = o.heap.stop()
		o.heap = nil
	}
}

// workload is one benchmark workload.
type workload struct {
	name  string
	why   string
	tailQ float64 // reported tail quantile, see workloads
	run   func(e *env, o *outcome) error
}

// workloads lists the benchmark's workloads in run order. The run report
// prints as each one's wall-clock latency tail a quantile that keeps at
// least minBeyond samples beyond it in a 10-second run, and does not sit
// on the boundary between two request classes, where it would jump
// between their costs. The eval workloads report p95: their p99 is set by
// the one request in a hundred that a millisecond-long stall of a shared
// host catches, and moved several-fold between runs of the same code. In
// optimize-sweep's cycles of seven request classes, p75 lies in the
// second-slowest class (p71–p86), and its 40 or more requests per run
// leave ten beyond it. reproduce, with one or two passes, reports its
// slowest pass.
func workloads() []workload {
	return []workload{
		{"eval-hot", "repeated keys served from the memory tier: HTTP, JSON, middleware and store lookups, no backend work", 0.95, runEvalHot},
		{"eval-restart", "a restarted server answering every key from the disk tier: disk reads and entry decoding", 0.95, runEvalRestart},
		{"eval-cold", "distinct exact evaluations: subset-enumeration kernels plus a store miss and a disk write per request", 0.95, runEvalCold},
		{"optimize-sweep", "searches and streamed sweeps: the optimizer, reusable evaluators and chunked sweeps", 0.75, runOptimizeSweep},
		{"reproduce", "regenerating every table and figure: harness, exact oracles and the Monte-Carlo kernel, no HTTP", 1, runReproduce},
	}
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

// runWorkload runs w once in a fresh working directory under root. A
// traced run leaves its spans in e.tr.
func runWorkload(w workload, e *env, root string) (*outcome, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(root, w.name+"-"+strconv.FormatUint(e.seed, 10)+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e.work = work
	e.tr = nil
	if e.trace {
		e.tr = newTracer()
	}
	o := &outcome{tailQ: w.tailQ, lat: newSamples(e.trace, 0), m: newMeter()}
	defer o.m.close()
	err = w.run(e, o)
	if err == nil {
		err = o.m.err
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return o, nil
}
