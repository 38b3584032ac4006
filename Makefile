# Canonical developer entry points. `make ci` is the tier-1 gate recorded
# in ROADMAP.md; the race target covers the concurrency-heavy packages
# (the Monte-Carlo engine with its batch kernel and scratch pools, the
# metrics/span layer it feeds, the memoizing evaluation engine with its
# sharded sweeps, and the exact evaluators with their sharded subset
# enumerations) plus the canonical problem package they all share.

GO ?= go

# Benchmark knobs: CI can run a short smoke-bench without timing out via
# `make bench BENCHTIME=10x PKG=.`. Performance is measured end to end on
# the current tree by the separate benchmark module: `bash bench/run.sh`.
BENCHTIME ?= 1s
PKG ?= ./...

.PHONY: build test race vet bench bench-module ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/problem/... ./internal/model/... ./internal/qrand/... ./internal/sim/... ./internal/obs/... ./internal/store/... ./internal/engine/... ./internal/optimize/... ./internal/serve/... ./internal/nonoblivious/... ./internal/oblivious/... ./internal/dist/... ./internal/combin/...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=$(BENCHTIME) $(PKG)

# The benchmark module (bench/, its own go.mod replacing repro with this
# tree) must keep compiling and passing its tests against every API change.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

ci: build vet test race bench-module
