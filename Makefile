# Canonical developer entry points. `make ci` is the tier-1 gate recorded
# in ROADMAP.md; the race target covers the concurrency-heavy packages
# (the Monte-Carlo engine with its batch kernel and scratch pools, the
# metrics/span layer it feeds, the memoizing evaluation engine with its
# sharded sweeps, the serial exact evaluators that those sweeps call from
# many goroutines, the PY91 cross-checks, which simulate protocols through
# the engine's worker pool, the one-bit protocols, the interval-set
# response rules with their exact rational path, the experiment harness
# and the CLI, which drive all of these) plus the canonical problem package
# they all share.

GO ?= go

# Benchmark knobs: CI can run a short smoke-bench without timing out via
# `make bench BENCHTIME=10x PKG=.`. Performance is measured end to end on
# the current tree by the separate benchmark module: `bash bench/run.sh`.
BENCHTIME ?= 1s
PKG ?= ./...

.PHONY: build fmt test race vet bench bench-smoke bench-module results-check ci ab loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/problem/... ./internal/model/... ./internal/qrand/... ./internal/sim/... ./internal/obs/... ./internal/store/... ./internal/engine/... ./internal/optimize/... ./internal/serve/... ./internal/nonoblivious/... ./internal/oblivious/... ./internal/dist/... ./internal/combin/... ./internal/py91/... ./internal/comm/... ./internal/response/... ./internal/harness/... ./cmd/nocomm/...

vet:
	$(GO) vet ./...

# gofmt must have nothing to rewrite (the bench module included).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=$(BENCHTIME) $(PKG)

# One iteration of each per-layer micro-benchmark of the exact symbolic
# optimum (n = 6, 12, 16), the omniscient feasibility check and its
# Monte-Carlo estimator, and the one-bit protocol's exact evaluation, so
# they keep compiling and running; timings come from `make bench`.
bench-smoke:
	$(GO) test -run '^$$' -bench '^(BenchmarkSymbolicDerivation|BenchmarkFeasibleAssignmentExists|BenchmarkFeasibilityProbability|BenchmarkOneBitWinProbability)$$' -benchtime 1x .

# The benchmark module (bench/, its own go.mod replacing repro with this
# tree) must keep compiling and passing its tests against every API change.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The committed results/ must be exactly what the current tree generates.
results-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/experiments -workers 2 -out "$$tmp" >/dev/null && diff -r "$$tmp" results

ci: build fmt vet test race bench-smoke bench-module results-check

# Paired A/B runs of the end-to-end benchmark: the committed BASE against
# the committed HEAD, alternating which runs first, each also built with
# every kernel in its other 64-byte phase (see cmd/ab). Paste the report
# into CHANGES.md. Example: make ab BASE=HEAD~1 WORKLOAD=eval-cold PAIRS=5
BASE ?= HEAD~1
WORKLOAD ?= reproduce
PAIRS ?= 10
ab:
	$(GO) run ./cmd/ab -base $(BASE) -workload $(WORKLOAD) -pairs $(PAIRS)

# Non-test Go lines (wc -l of every non-_test.go file) of each package
# outside bench/, in the working tree and at $(BASE) (exported with git
# archive, as cmd/ab does), with the per-package change and the totals:
# the count simplicity changes report. Example: make loc BASE=main
loc:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	git archive "$(BASE)" | tar -x -C "$$tmp" || exit 1; \
	count() { (cd "$$1" && $(GO) list -f '{{.ImportPath}} {{.Dir}}' ./...) | while read -r pkg dir; do \
		printf '%s %d\n' "$$pkg" "$$(cat /dev/null $$(ls "$$dir"/*.go | grep -v '_test\.go$$') | wc -l)"; \
	done; }; \
	count "$$tmp" > "$$tmp/.loc-base" && count . > "$$tmp/.loc-head" || exit 1; \
	awk 'NR == FNR { base[$$1] = $$2; next } { head[$$1] = $$2; order[++n] = $$1 } \
	END { for (p in base) if (!(p in head)) order[++n] = p; \
		printf "%6s %6s %6s %s\n", "base", "head", "delta", "package"; \
		for (i = 1; i <= n; i++) { p = order[i]; tb += base[p]; th += head[p]; \
			printf "%6d %6d %+6d %s\n", base[p], head[p], head[p] - base[p], p }; \
		printf "%6d %6d %+6d total\n", tb, th, th - tb }' "$$tmp/.loc-base" "$$tmp/.loc-head"
