package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/obs"
)

// tinySizes shrink every workload so a run takes a fraction of a second.
func tinySizes() sizes {
	return sizes{
		hotKeys:     12,
		setupReps:   2,
		optimize:    optimizeSizes{homogN: 4, heteroN: 3, sweepThrN: 5, sweepOblN: 5, oblN: 4, points: 16},
		coldSample:  8,
		reproTrials: 2000,
		reproPoints: 5,
		reproIDs:    []string{"T2", "F1", "V1"},
		probeScale:  0.01,
	}
}

var timeUnits = []string{"s", "ms", "us", "ns"}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that it passes its own correctness checks and reports exactly the
// catalog's metrics, every end-to-end value and the traced op time
// non-zero.
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			e := env{seed: 7, seconds: 0.2, trace: traced, sz: tinySizes()}
			o, err := runWorkload(w, &e, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			r := report(w, o, traced)
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.name, traced, r.Failed, r.Attempted, r.Failures)
			}
			specs := endToEnd
			if traced {
				specs = layerMetrics
			}
			if len(r.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(r.Metrics), len(specs))
			}
			for _, s := range specs {
				v, ok := r.Metrics[s.Name]
				switch {
				case !ok || v.Unit != s.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s traced=%v: %s = %+v", w.name, traced, s.Name, v)
				case (!traced || slices.Contains(timeUnits, s.Unit)) && v.Value <= 0 && s.Name != "trace.overhead_frac":
					t.Errorf("%s traced=%v: %s = %v, want > 0", w.name, traced, s.Name, v.Value)
				}
			}
			if traced {
				path := filepath.Join(t.TempDir(), "spans.jsonl")
				if err := e.tr.write(path); err != nil {
					t.Fatal(err)
				}
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				evs, err := obs.ReadEvents(f)
				f.Close()
				if err != nil || len(evs) == 0 || len(evs) != 2*len(e.tr.spans) {
					t.Errorf("%s: %d span events for %d spans (err %v)", w.name, len(evs), len(e.tr.spans), err)
				}
			}
		}
	}
}

// TestProbes checks that the layer probes report every probe metric, each
// a positive time.
func TestProbes(t *testing.T) {
	m, err := runProbes(7, tinySizes().probeScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(probeMetrics) {
		t.Errorf("%d probe values, want %d", len(m), len(probeMetrics))
	}
	for _, s := range probeMetrics {
		if v, ok := m[s.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", s.Name, v)
		}
	}
}

// TestBenchmarkJSON checks the repository's BENCHMARK.json against the
// workloads and metric catalog this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(doc.Command, []string{"bash", "bench/run.sh"}) || !slices.Equal(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range doc.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(names, declared) {
		t.Errorf("workloads %v, declared %v", names, declared)
	}
	same := func(a, b []metricSpec) bool {
		return slices.EqualFunc(a, b, func(x, y metricSpec) bool {
			return x.Name == y.Name && x.Unit == y.Unit && x.Better == y.Better &&
				(x.Bound == nil) == (y.Bound == nil) && (x.Bound == nil || *x.Bound == *y.Bound)
		})
	}
	if !same(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's catalog")
	}
	if !same(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's catalog")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-trace", "2"}, {"-repeat", "0"}, {"-seconds", "0"}, {"extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want 2 and no result", args, code, out.String())
		}
	}
}
