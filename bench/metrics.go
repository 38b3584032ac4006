package main

import (
	"slices"
	"sort"

	"repro/internal/harness"
)

// metricSpec is one metric of the catalog BENCHMARK.json declares; Bound
// is set on end-to-end metrics only.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(v float64) *float64 { return &v }

// endToEnd are the metrics a user of the service or the CLI sees, reported
// by every untraced run. Bounds are the share of the baseline median by
// which a metric may worsen before a change counts as a regression. The
// times are CPU times of the whole process, rescaled by the run's
// reference job (see meter): on a shared host they repeat where wall
// times drift with the other tenants' load. The wall-clock throughput and
// latencies are printed in the run report.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: bound(0.25)},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: bound(0.25)},
	{Name: "heap_p90_mb", Unit: "MiB", Better: "lower", Bound: bound(0.25)},
}

// wallFigures are the wall-clock numbers the run report prints beside the
// end-to-end metrics: what a caller waited for on this run, but drifting
// with the host's load, so not part of the result line.
var wallFigures = []metricSpec{
	{Name: "setup_wall_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower"},
}

// layerMetrics are the per-layer metrics a traced run of one workload
// reports, from the replay of its own ops and the server's registry. The
// one time, trace.op_us, is measured in every workload; a layer's own time
// is its share times trace.op_us, and shares, ratios and counts read 0
// where the workload never reaches the layer.
var layerMetrics = func() []metricSpec {
	m := []metricSpec{
		{"trace.op_us", "us", "lower", nil},
		{"trace.overhead_frac", "ratio", "lower", nil},
		{"trace.ops", "count", "higher", nil},
		{"transport.share", "ratio", "lower", nil},
		{"serve.share", "ratio", "lower", nil},
		{"engine.share", "ratio", "lower", nil},
		{"store.share", "ratio", "lower", nil},
		{"exact.share", "ratio", "lower", nil},
		{"harness.share", "ratio", "lower", nil},
		{"sim.share", "ratio", "lower", nil},
		{"serve.allocs_per_req", "count", "lower", nil},
		{"serve.bytes_per_req", "B", "lower", nil},
		{"serve.scaling_2c", "ratio", "higher", nil},
		{"engine.hit_ratio", "ratio", "higher", nil},
		{"engine.coalesced", "count", "higher", nil},
		{"store.disk_hit_ratio", "ratio", "higher", nil},
		{"exact.subsets_per_req", "count", "lower", nil},
		{"exact.steps_per_req", "count", "lower", nil},
		{"optimize.reuse_ratio", "ratio", "higher", nil},
		{"sim.trials", "count", "higher", nil},
		{"store.disk_bytes_per_entry", "B", "lower", nil},
	}
	for _, kind := range []string{"vector", "scalar"} {
		m = append(m,
			metricSpec{"optimize." + kind + ".evals_per_req", "count", "lower", nil},
			metricSpec{"optimize." + kind + ".cache_hits_per_req", "count", "higher", nil},
			metricSpec{"optimize." + kind + ".delta_updates_per_req", "count", "higher", nil},
			metricSpec{"optimize." + kind + ".iterations_per_req", "count", "lower", nil},
		)
	}
	for _, id := range harness.IDs() {
		m = append(m, metricSpec{"harness." + id + ".share", "ratio", "lower", nil})
	}
	return m
}()

// perLayer is the whole per-layer catalog: each workload's own metrics,
// then the layer probes a traced invocation runs once.
var perLayer = append(slices.Clip(layerMetrics), probeMetrics...)

// metricValues builds the reported metrics of an outcome: the end-to-end
// set for untraced runs, the workload's per-layer set for traced ones.
func metricValues(o *outcome, traced bool) map[string]metricValue {
	out := map[string]metricValue{}
	if traced {
		for _, s := range layerMetrics {
			out[s.Name] = metricValue{o.layers[s.Name], s.Unit}
		}
		return out
	}
	for _, s := range endToEnd {
		var v float64
		switch s.Name {
		case "setup_s":
			v = median(setupTimes(o, true))
		case "cpu_ms_per_op":
			cpu, _ := o.m.phase()
			v = cpu / float64(o.lat.n) * 1e3
		case "heap_p90_mb":
			v = o.heapLive / (1 << 20)
		}
		out[s.Name] = metricValue{v, s.Unit}
	}
	return out
}

// setupTimes are the set-ups' rescaled CPU times, or their wall times.
func setupTimes(o *outcome, cpu bool) []float64 {
	t := make([]float64, len(o.setup))
	for i, s := range o.setup {
		t[i] = s.wall
		if cpu {
			t[i] = s.cpu * o.m.scale()
		}
	}
	return t
}

// wallValues builds the wall-clock figures of an untraced outcome.
func wallValues(o *outcome) map[string]metricValue {
	lat := sortedCopy(o.lat.v)
	_, elapsed := o.m.phase()
	out := map[string]metricValue{}
	for _, s := range wallFigures {
		var v float64
		switch s.Name {
		case "setup_wall_s":
			v = median(setupTimes(o, false))
		case "ops_per_s":
			v = float64(o.lat.n) / elapsed
		case "latency_p50_ms":
			v = quantile(lat, 0.5) * 1e3
		case "latency_tail_ms":
			v = quantile(lat, o.tailQ) * 1e3
		}
		out[s.Name] = metricValue{v, s.Unit}
	}
	return out
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
