# Canonical developer entry points. `make ci` is the tier-1 gate recorded
# in ROADMAP.md; the race target covers the concurrency-heavy packages
# (the Monte-Carlo engine with its batch kernel and scratch pools, the
# metrics/span layer it feeds, the memoizing evaluation engine with its
# sharded sweeps, the serial exact evaluators that those sweeps call from
# many goroutines, and the PY91 cross-checks, which simulate protocols through
# the engine's worker pool) plus the canonical problem package they all
# share.

GO ?= go

# Benchmark knobs: CI can run a short smoke-bench without timing out via
# `make bench BENCHTIME=10x PKG=.`. Performance is measured end to end on
# the current tree by the separate benchmark module: `bash bench/run.sh`.
BENCHTIME ?= 1s
PKG ?= ./...

.PHONY: build fmt test race vet bench bench-module results-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/problem/... ./internal/model/... ./internal/qrand/... ./internal/sim/... ./internal/obs/... ./internal/store/... ./internal/engine/... ./internal/optimize/... ./internal/serve/... ./internal/nonoblivious/... ./internal/oblivious/... ./internal/dist/... ./internal/combin/... ./internal/py91/...

vet:
	$(GO) vet ./...

# gofmt must have nothing to rewrite (the bench module included).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=$(BENCHTIME) $(PKG)

# The benchmark module (bench/, its own go.mod replacing repro with this
# tree) must keep compiling and passing its tests against every API change.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The committed results/ must be exactly what the current tree generates.
results-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/experiments -workers 2 -out "$$tmp" >/dev/null && diff -r "$$tmp" results

ci: build fmt vet test race bench-module results-check
