package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
)

// The traced run replays ops in process at each layer boundary: the
// loopback request (http), Handler.ServeHTTP (serve), the engine call
// (engine), the store tier calls (store), the exact kernel (exact) and
// Experiment.Run (harness). Each boundary call is one span owned by the
// benchmark; the program under test gets no extra instrumentation. Every
// boundary replays the op against its own stack prepared in the state the
// op saw (warm, restarted or empty), so a span's parent names the
// enclosing layer of the same op rather than a span that contained it in
// time. A layer's self time is its span's duration minus the durations of
// its inner layers' spans for that op.

// span is one timed boundary call.
type span struct {
	id, parent int64
	op         int
	name       string
	start, end time.Time
}

// tracer keeps the spans of a traced run in memory.
type tracer struct {
	spans []span
	total map[string]float64 // seconds per layer, summed over ops
	ops   map[string]int     // ops that reached each layer
}

func newTracer() *tracer {
	return &tracer{total: map[string]float64{}, ops: map[string]int{}}
}

// span times fn as layer name of op, under parent, and returns the span id.
// The tracer is used from one goroutine.
func (t *tracer) span(op int, name string, parent int64, fn func() error) (int64, error) {
	id := int64(len(t.spans) + 1)
	start := time.Now()
	err := fn()
	end := time.Now()
	t.spans = append(t.spans, span{id: id, parent: parent, op: op, name: name, start: start, end: end})
	t.total[name] += end.Sub(start).Seconds()
	t.ops[name]++
	return id, err
}

// add records a layer time measured outside a span (read from the
// program's own registry), so it enters the self-time arithmetic.
func (t *tracer) add(name string, seconds float64) { t.total[name] += seconds }

// shareMetric maps a layer onto its per-layer share metric.
var shareMetric = map[string]string{
	"http":    "transport.share",
	"serve":   "serve.share",
	"engine":  "engine.share",
	"store":   "store.share",
	"exact":   "exact.share",
	"harness": "harness.share",
	"sim":     "sim.share",
}

// breakdown turns the layer totals into per-layer metrics (layers the
// workload never reached are left out and report 0). inner maps each layer
// onto the layers it calls; outer is the outermost layer, whose mean span
// is the traced op time. ref is the untraced mean latency, in seconds, of
// the ops replayed.
func (t *tracer) breakdown(outer string, inner map[string][]string, ref float64) map[string]float64 {
	m := map[string]float64{}
	n := t.ops[outer]
	total := t.total[outer]
	if n == 0 || total <= 0 {
		return m
	}
	for layer, sec := range t.total {
		self := sec
		for _, c := range inner[layer] {
			self -= t.total[c]
		}
		if name, ok := shareMetric[layer]; ok {
			m[name] = self / total
		}
	}
	if k := t.ops["serve"]; k > 0 {
		m["serve.allocs_per_req"] = t.total["serve.allocs"] / float64(k)
		m["serve.bytes_per_req"] = t.total["serve.bytes"] / float64(k)
	}
	m["trace.ops"] = float64(n)
	m["trace.op_us"] = total / float64(n) * 1e6
	if ref > 0 {
		m["trace.overhead_frac"] = total/float64(n)/ref - 1
	}
	return m
}

// write stores the spans as an obs JSONL run log (span_start/span_end
// events, the op index in each end event), readable by `nocomm metrics`.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	sink := obs.NewSink(f)
	for _, s := range t.spans {
		sink.Emit(obs.Event{TimeNS: s.start.UnixNano(), Type: obs.EventSpanStart, Name: "bench." + s.name, Span: s.id, Parent: s.parent})
		sink.Emit(obs.Event{TimeNS: s.end.UnixNano(), Type: obs.EventSpanEnd, Name: "bench." + s.name, Span: s.id, Parent: s.parent,
			Attrs: map[string]float64{"seconds": s.end.Sub(s.start).Seconds(), "op": float64(s.op)}})
	}
	if err := sink.Err(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
