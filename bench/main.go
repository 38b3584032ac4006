// Command bench is the repository's end-to-end and per-layer benchmark.
// It drives in-process `nocomm serve` stacks over loopback and the
// experiment harness, checks every answer, and prints the metrics that
// BENCHMARK.json declares; see README.md for the workloads and metrics.
//
//	bash bench/run.sh --workload eval-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// header describes the environment a run measured.
type header struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Repeat     int     `json:"repeat"`
}

// runReport is one workload run, as printed.
type runReport struct {
	Workload  string                 `json:"workload"`
	Metrics   map[string]metricValue `json:"metrics"`
	Wall      map[string]metricValue `json:"wall,omitempty"`
	Samples   int                    `json:"latency_samples"`
	TailQ     float64                `json:"tail_quantile"`
	Beyond    int                    `json:"samples_beyond_tail"`
	SetupReps int                    `json:"setup_reps"`
	Elapsed   float64                `json:"measured_s"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
}

// spread is a metric's median and quartiles over repeated runs.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "length of each measured phase, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics instead")
	spansPath := fs.String("spans", "", "with -trace 1, write the last traced run's spans as obs JSONL to this file")
	asJSON := fs.Bool("json", false, "print the full report as JSON instead of text")
	repeat := fs.Int("repeat", 1, "runs per workload; reports the median and quartiles of each metric")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for the runs' caches and artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *repeat < 1 || !(*seconds > 0) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1, -repeat ≥ 1, -seconds > 0, and no positional arguments")
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads()
	} else {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		ws = []workload{w}
	}
	h := header{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: cpuModel(), Commit: commit(), Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Repeat: *repeat,
	}
	e := env{seed: *seed, seconds: *seconds, trace: *trace == 1, sz: defaultSizes()}

	final := result{Metrics: map[string]metricValue{}}
	var reports []runReport
	summaries := map[string]map[string]spread{}
	if !*asJSON {
		printHeader(stdout, h)
	}
	for _, w := range ws {
		var runs []runReport
		for i := 0; i < *repeat; i++ {
			o, err := runWorkload(w, &e, *workdir)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 2
			}
			if e.tr != nil && *spansPath != "" {
				if err := e.tr.write(*spansPath); err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 2
				}
			}
			r := report(w, o, e.trace)
			runs = append(runs, r)
			if !*asJSON {
				printRun(stdout, w, r, i+1)
			}
		}
		sum := summarize(runs)
		summaries[w.name] = sum
		if !*asJSON && *repeat > 1 {
			printSummary(stdout, sum)
		}
		reports = append(reports, runs...)
		for _, r := range runs {
			final.Attempted += r.Attempted
			final.Failed += r.Failed
		}
		for m, s := range sum {
			key := m
			if len(ws) > 1 {
				key = w.name + "." + m
			}
			final.Metrics[key] = metricValue{s.Median, s.Unit}
		}
	}
	var probes map[string]metricValue
	if e.trace {
		m, err := runProbes(*seed, e.sz.probeScale)
		if err != nil {
			fmt.Fprintln(stderr, "bench: layer probes:", err)
			return 2
		}
		probes = map[string]metricValue{}
		for _, s := range probeMetrics {
			probes[s.Name] = metricValue{m[s.Name], s.Unit}
		}
		maps.Copy(final.Metrics, probes)
		if !*asJSON {
			printMetrics(stdout, "\nlayer probes (once per invocation)", probes)
		}
	}
	final.Correct = final.Failed == 0
	if *asJSON {
		full := struct {
			Header    header                       `json:"header"`
			Runs      []runReport                  `json:"runs"`
			Summaries map[string]map[string]spread `json:"summaries"`
			Probes    map[string]metricValue       `json:"probes,omitempty"`
		}{h, reports, summaries, probes}
		if err := writeJSON(stdout, full, true); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if err := writeJSON(stdout, final, false); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !final.Correct {
		return 1
	}
	return 0
}

// report condenses an outcome into the printed run report.
func report(w workload, o *outcome, traced bool) runReport {
	lat := sortedCopy(o.lat.v)
	var wall map[string]metricValue
	if !traced {
		wall = wallValues(o)
	}
	_, elapsed := o.m.phase()
	return runReport{
		Workload:  w.name,
		Metrics:   metricValues(o, traced),
		Wall:      wall,
		Samples:   o.lat.n,
		TailQ:     o.tailQ,
		Beyond:    beyond(lat, quantile(lat, o.tailQ)),
		SetupReps: len(o.setup),
		Elapsed:   elapsed,
		Attempted: o.ops + o.checks,
		Failed:    o.failedOps + o.failedChecks,
		Failures:  o.failures,
		Notes:     o.notes,
	}
}

// summarize reduces repeated runs to each metric's median and quartiles.
func summarize(runs []runReport) map[string]spread {
	out := map[string]spread{}
	for name, mv := range runs[0].Metrics {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.Metrics[name].Value
		}
		s := spread{Median: median(vals), Unit: mv.Unit}
		s.Q1, s.Q3 = s.Median, s.Median
		if len(vals) > 1 {
			s.Q1, _, s.Q3 = quartiles(vals)
		}
		out[name] = s
	}
	return out
}

func writeJSON(w io.Writer, v any, indent bool) error {
	enc := json.NewEncoder(w)
	if indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(v)
}

func printHeader(w io.Writer, h header) {
	fmt.Fprintf(w, "nocomm bench  %s  GOMAXPROCS=%d  nproc=%d  cpu=%q\n", h.Go, h.GOMAXPROCS, h.NumCPU, h.CPU)
	fmt.Fprintf(w, "commit %s  seed %d  measured phase %gs  traced=%v  runs per workload %d\n", h.Commit, h.Seed, h.Seconds, h.Trace, h.Repeat)
}

func printRun(w io.Writer, wl workload, r runReport, n int) {
	fmt.Fprintf(w, "\n%s run %d — %s\n", wl.name, n, wl.why)
	fmt.Fprintf(w, "  %d ops attempted, %d failed; %d set-ups; %d latency samples over %.2fs; p%g has %d samples beyond it\n",
		r.Attempted, r.Failed, r.SetupReps, r.Samples, r.Elapsed, 100*r.TailQ, r.Beyond)
	if r.Beyond < minBeyond {
		fmt.Fprintf(w, "  note: fewer than %d samples lie beyond the tail\n", minBeyond)
	}
	printMetrics(w, "", r.Metrics)
	if r.Wall != nil {
		printMetrics(w, "  wall clock (drifts with the host's load; not in the result line)", r.Wall)
	}
	for _, s := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", s)
	}
	for _, s := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", s)
	}
}

// printMetrics prints metrics by name under an optional title.
func printMetrics(w io.Writer, title string, m map[string]metricValue) {
	if title != "" {
		fmt.Fprintln(w, title)
	}
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

func printSummary(w io.Writer, sum map[string]spread) {
	fmt.Fprintf(w, "  %-36s %14s %14s %14s\n", "metric (over runs)", "median", "q1", "q3")
	for _, name := range sortedKeys(sum) {
		s := sum[name]
		fmt.Fprintf(w, "  %-36s %14.6g %14.6g %14.6g %s\n", name, s.Median, s.Q1, s.Q3, s.Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" when it
// is unavailable).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from the nearest .git directory at
// or above the working directory ("unknown" outside a git checkout).
func commit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		git := filepath.Join(dir, ".git")
		if head, err := os.ReadFile(filepath.Join(git, "HEAD")); err == nil {
			ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
			if !isRef {
				return ref
			}
			if id, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
				return strings.TrimSpace(string(id))
			}
			return packedRef(git, ref)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

// packedRef looks ref up in .git/packed-refs.
func packedRef(git, ref string) string {
	b, err := os.ReadFile(filepath.Join(git, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
