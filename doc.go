// Package repro reproduces Georgiades, Mavronicolas and Spirakis,
// "Optimal, Distributed Decision-Making: The Case of No Communication"
// (FCT 1999) as a production-quality Go library.
//
// The implementation lives under internal/: see internal/engine for the
// one evaluation API over every rule class and backend (on instances from
// internal/problem), internal/obs for the dependency-free observability
// layer (metrics, spans, JSONL run logs) threaded through the simulation
// and optimization engines, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The root package exists to carry the module documentation and the
// benchmark harness (bench_test.go), which regenerates every table and
// figure of the paper's evaluation under `go test -bench` — including the
// paired benchmarks bounding the telemetry layer's no-op overhead.
package repro
