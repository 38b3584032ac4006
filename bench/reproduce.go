package main

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// reproWorkers pins the Monte-Carlo and exact shard width, so a pass is
// deterministic whatever GOMAXPROCS is.
const reproWorkers = 2

// artifacts renders one experiment's output the way the `experiments`
// command writes it: text, markdown and CSV for tables, ASCII, SVG and CSV
// for figures.
func artifacts(out harness.RunOutput) (map[string][]byte, error) {
	files := map[string][]byte{}
	var csv bytes.Buffer
	switch {
	case out.Figure != nil:
		ascii, err := out.Figure.ASCII(0, 0)
		if err != nil {
			return nil, err
		}
		svg, err := out.Figure.SVG(0, 0)
		if err != nil {
			return nil, err
		}
		if err := out.Figure.WriteCSV(&csv); err != nil {
			return nil, err
		}
		files["txt"], files["svg"] = []byte(ascii), []byte(svg)
	case out.Table != nil:
		text, err := out.Table.Render()
		if err != nil {
			return nil, err
		}
		md, err := out.Table.Markdown()
		if err != nil {
			return nil, err
		}
		if err := out.Table.WriteCSV(&csv); err != nil {
			return nil, err
		}
		files["txt"], files["md"] = []byte(text), []byte(md)
	default:
		return nil, fmt.Errorf("experiment produced no artifact")
	}
	files["csv"] = csv.Bytes()
	return files, nil
}

// reproPass runs every experiment once with a fresh engine, like one
// `experiments` invocation, writing the artifacts under dir.
type reproPass struct {
	exps   []harness.Experiment
	params func(o *obs.Observer) harness.Params
	dir    string
}

// run executes the pass on params, built by p.params(o), and returns, by
// experiment id, each experiment's wall time (run, rendering and writing)
// and its artifacts by extension. With a tracer, each experiment is a
// harness span, and the Monte-Carlo time it spent is read from the
// observer's sim span timers. between, when non-nil, runs before each
// experiment.
func (p *reproPass) run(o *obs.Observer, params harness.Params, tr *tracer, skip []string, between func()) (map[string]float64, map[string]map[string][]byte, error) {
	secs, outs := map[string]float64{}, map[string]map[string][]byte{}
	for i, exp := range p.exps {
		if slices.Contains(skip, exp.ID) {
			continue
		}
		if between != nil {
			between()
		}
		sim0 := simSeconds(o)
		var files map[string][]byte
		call := func() error {
			out, err := exp.Run(o, params)
			if err != nil {
				return err
			}
			if files, err = artifacts(out); err != nil {
				return err
			}
			base := filepath.Join(p.dir, strings.ToLower(exp.ID))
			for ext, b := range files {
				if err := os.WriteFile(base+"."+ext, b, 0o644); err != nil {
					return err
				}
			}
			return nil
		}
		start := time.Now()
		var err error
		if tr != nil {
			_, err = tr.span(i, "harness", 0, call)
			tr.add("sim", simSeconds(o)-sim0)
		} else {
			err = call()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", exp.ID, err)
		}
		secs[exp.ID] = time.Since(start).Seconds()
		outs[exp.ID] = files
	}
	return secs, outs, nil
}

// simSeconds sums the sim.* span timers of o's registry: the wall time the
// Monte-Carlo kernel ran under this observer.
func simSeconds(o *obs.Observer) float64 {
	if o == nil {
		return 0
	}
	total := 0.0
	for name, t := range o.Metrics.Snapshot().Timers {
		if strings.HasPrefix(name, "span.sim.") {
			total += t.TotalSeconds
		}
	}
	return total
}

// runReproduce: whole passes over the experiment registry through
// Experiment.Run at the `experiments` CLI defaults, a fresh engine per
// pass, then a determinism check and the V1 z-scores.
func runReproduce(e *env, o *outcome) error {
	dir, err := e.dir("out")
	if err != nil {
		return err
	}
	// The set-up looks the experiments up and builds the engine the first
	// pass runs on; each later pass builds its own within its time, as a
	// fresh `experiments` invocation would.
	var (
		pass  *reproPass
		ready harness.Params
	)
	err = o.timeSetups(e.sz, nil, func() error {
		ids := e.sz.reproIDs
		if ids == nil {
			ids = harness.IDs()
		}
		p := &reproPass{dir: dir}
		for _, id := range ids {
			exp, err := harness.Lookup(id)
			if err != nil {
				return err
			}
			p.exps = append(p.exps, exp)
		}
		p.params = func(obsv *obs.Observer) harness.Params {
			cfg := sim.Config{Trials: e.sz.reproTrials, Seed: e.seed, Workers: reproWorkers, Obs: obsv}
			st := store.NewMemory(store.Options{Obs: obsv})
			eng := engine.New(engine.Config{Sim: cfg, Obs: obsv, ExactWorkers: reproWorkers, Store: st})
			return harness.Params{Points: e.sz.reproPoints, Sim: cfg, Backend: engine.Auto, Engine: eng}
		}
		ready = p.params(nil)
		pass = p
		return nil
	})
	if err != nil {
		return err
	}

	// An operation is a whole pass: the time to regenerate every artifact.
	var (
		first     map[string]map[string][]byte
		firstSecs map[string]float64
	)
	deadline := e.measured()
	err = o.measure(func() error {
		return o.untilNearest(deadline, func() error {
			start := time.Now()
			if o.ops > 0 {
				ready = pass.params(nil)
			}
			secs, outs, err := pass.run(nil, ready, nil, nil, o.tick)
			if err != nil {
				return err
			}
			o.lat.add(time.Since(start).Seconds())
			o.ops++
			if first == nil {
				first, firstSecs = outs, secs
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	var perExp []string
	for _, exp := range pass.exps {
		perExp = append(perExp, fmt.Sprintf("%s %.3gs", exp.ID, firstSecs[exp.ID]))
	}
	o.notes = append(o.notes, "first pass: "+strings.Join(perExp, ", "))
	checkV1(o, first["V1"]["txt"])

	// Determinism: a second pass must reproduce every artifact byte for
	// byte. The traced pass doubles as that second pass; untraced runs
	// repeat all but the two slowest experiments.
	var again map[string]map[string][]byte
	var secs map[string]float64
	if e.trace {
		obsv := obs.New(obs.NewRegistry(), nil)
		secs, again, err = pass.run(obsv, pass.params(obsv), e.tr, nil, nil)
		if err == nil {
			var ref []float64
			for _, s := range firstSecs {
				ref = append(ref, s)
			}
			o.layers = e.tr.breakdown("harness", map[string][]string{"harness": {"sim"}}, mean(ref))
			total := 0.0
			for _, s := range secs {
				total += s
			}
			for id, s := range secs {
				o.layers["harness."+id+".share"] = s / total
			}
			o.layers["sim.trials"] = float64(obsv.Counter("sim.trials").Value())
		}
	} else {
		_, again, err = pass.run(nil, pass.params(nil), nil, e.sz.recheckSkip, nil)
	}
	if err != nil {
		return err
	}
	for id, files := range again {
		o.check(maps.EqualFunc(files, first[id], bytes.Equal), "reproduce: %s artifacts differ between passes", id)
	}
	return nil
}

// checkV1 requires every row of the rendered V1 table to have its
// exact-vs-simulated |z| (the last column) below 5.
func checkV1(o *outcome, text []byte) {
	if text == nil {
		return
	}
	rows := 0
	for _, line := range strings.Split(string(text), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || !strings.HasPrefix(line, "n=") {
			continue
		}
		z, err := strconv.ParseFloat(f[len(f)-1], 64)
		o.check(err == nil && z < 5, "reproduce: V1 row %q has |z| %v ≥ 5", line, f[len(f)-1])
		rows++
	}
	o.check(rows > 0, "reproduce: V1 printed no rows")
}
