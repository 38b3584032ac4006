// Command experiments regenerates every table and figure of the
// reproduction in one run, writing text, CSV and SVG artifacts into an
// output directory (default ./results). This is the one-button path behind
// EXPERIMENTS.md. With -obs it also writes a JSONL observability run log
// (one root span per experiment, simulation convergence traces, final
// metric snapshot) that `nocomm metrics` can replay, and -metrics prints a
// per-experiment wall-time snapshot on exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/sim"
	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	outDir := fs.String("out", "results", "output directory")
	trials := fs.Int("trials", 400_000, "Monte-Carlo trials for simulated columns")
	points := fs.Int("points", 201, "sweep points per figure curve")
	seed := fs.Uint64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "Monte-Carlo and sweep workers (0 = GOMAXPROCS)")
	backend := fs.String("backend", "auto", "evaluation backend: exact, mc, mc-qmc or auto")
	replicates := fs.Int("replicates", 0, "scrambled randomizations per estimate (mc-qmc backend, 0 = default 16)")
	piStr := fs.String("pi", "", "comma-separated per-player input ranges π_i for experiments that accept heterogeneous instances (e.g. T10)")
	cacheDir := fs.String("cache-dir", "", "persistent result-cache directory (empty = in-memory cache only)")
	obsPath := fs.String("obs", "", "append a JSONL observability run log to this file")
	metrics := fs.Bool("metrics", false, "print a JSON metrics snapshot on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := sim.CheckWorkers(*workers); err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("creating output directory: %w", err)
	}
	var o *obs.Observer
	if *obsPath != "" || *metrics {
		var sink *obs.Sink
		if *obsPath != "" {
			f, ferr := os.OpenFile(*obsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if ferr != nil {
				return fmt.Errorf("opening -obs log: %w", ferr)
			}
			defer func() {
				o.EmitSnapshot()
				if serr := sink.Err(); serr != nil && err == nil {
					err = serr
				}
				if cerr := f.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}()
			sink = obs.NewSink(f)
		}
		o = obs.New(obs.NewRegistry(), sink)
	}
	b, err := engine.ParseBackend(*backend)
	if err != nil {
		return err
	}
	pi, err := problem.ParsePi(*piStr)
	if err != nil {
		return err
	}
	st, err := store.New(store.Options{Dir: *cacheDir, Obs: o})
	if err != nil {
		return err
	}
	cfg := sim.Config{Trials: *trials, Seed: *seed, Workers: *workers, Replicates: *replicates, Obs: o}
	// One shared engine so evaluations repeated across experiments (e.g. the
	// same (n, δ, rule) point appearing in a figure and a table) are served
	// from the memoization cache, and so -metrics shows one hit/miss tally.
	// With -cache-dir the cache additionally persists across runs.
	eng := engine.New(engine.Config{Sim: cfg, Obs: o, Store: st})
	params := harness.Params{Points: *points, Sim: cfg, Backend: b, Pi: pi, Engine: eng}
	var summary strings.Builder
	for _, id := range harness.IDs() {
		exp, err := harness.Lookup(id)
		if err != nil {
			return err
		}
		fmt.Printf("=== %s: %s ===\n", exp.ID, exp.Title)
		out, err := exp.Run(o, params)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		base := strings.ToLower(id)
		switch {
		case out.Figure != nil:
			fig := out.Figure
			ascii, err := fig.ASCII(0, 0)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			fmt.Println(ascii)
			summary.WriteString(ascii + "\n")
			svg, err := fig.SVG(0, 0)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			if err := os.WriteFile(filepath.Join(*outDir, base+".svg"), []byte(svg), 0o644); err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(*outDir, base+".csv"))
			if err != nil {
				return err
			}
			err = fig.WriteCSV(f)
			cerr := f.Close()
			if err != nil {
				return err
			}
			if cerr != nil {
				return cerr
			}
		case out.Table != nil:
			tab := out.Table
			text, err := tab.Render()
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			fmt.Println(text)
			summary.WriteString(text + "\n")
			if err := os.WriteFile(filepath.Join(*outDir, base+".txt"), []byte(text), 0o644); err != nil {
				return err
			}
			md, err := tab.Markdown()
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			if err := os.WriteFile(filepath.Join(*outDir, base+".md"), []byte(md), 0o644); err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(*outDir, base+".csv"))
			if err != nil {
				return err
			}
			err = tab.WriteCSV(f)
			cerr := f.Close()
			if err != nil {
				return err
			}
			if cerr != nil {
				return cerr
			}
		}
	}
	if err := os.WriteFile(filepath.Join(*outDir, "summary.txt"), []byte(summary.String()), 0o644); err != nil {
		return err
	}
	fmt.Println("all artifacts written to", *outDir)
	if *metrics {
		if err := o.Metrics.Snapshot().WriteJSON(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
