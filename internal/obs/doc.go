// Package obs is the reproduction's dependency-free observability layer:
// a concurrency-safe metrics registry (counters, gauges, timers and
// fixed-bucket histograms), a lightweight span/trace API for nested
// phases (simulate → worker[i] → batch), and a structured JSONL event
// sink with pluggable writers.
//
// Instrumented code receives an *Observer; a nil Observer (and every
// object it hands out) is a no-op, so hot paths pay only a nil check when
// observability is disabled. The CLIs wire an Observer from the global
// -obs / -metrics flags, and `nocomm metrics run.jsonl` replays a recorded
// event log into a human-readable summary via Summarize.
//
// The package deliberately imports nothing outside the standard library so
// every other package in the module can depend on it.
package obs
