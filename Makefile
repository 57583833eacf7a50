GO ?= go

.PHONY: all build test vet sanitize fuzz-smoke race race-core race-wide race-all bench-smoke perfbench-test experiments-smoke fmt-check tier1 verify clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# sanitize executes the README quickstart schedules with the runtime
# happens-before sanitizer on: every op is checked against the dependency
# graph, the link model, and the activation-memory ledger as it executes.
# (The exec test suite forces the sanitizer unconditionally; this target
# exercises pipesim's user-facing -sanitize path.)
sanitize:
	$(GO) run ./cmd/pipesim -model gpt2-345m -stages 4 -mbs 4 -micro 8 -sanitize
	$(GO) run ./cmd/pipesim -model gpt2-345m -stages 4 -mbs 4 -micro 8 -schedule sliced -sanitize

# fuzz-smoke runs each fuzz target briefly: long enough to replay the corpus
# and explore a little, short enough for every CI run. The root
# TestFuzzTargetsListed fails unless this list and CI's fuzz matrix name
# every Fuzz function in the module.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzSubmit -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzParseChaos -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzParseDeadline -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzSummarize -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzParseDone -fuzztime=$(FUZZTIME) ./client

# -short skips the Fig. 12 wall-clock-ordering test, whose relative search
# times the race detector's instrumentation distorts (it fails under -race
# even on the unmodified seed tree).
race:
	$(GO) test -race -short ./...

# race-core runs the planner engine, plan evaluator, discrete-event
# executor, and the training runtimes under the race detector at full
# depth. The search itself is serial, but the service calls the Planner
# from concurrent queue workers, so the engine must share no state between
# calls; the pipeline training runtime runs one goroutine per stage.
race-core:
	$(GO) test -race ./internal/core/... ./internal/plan/... ./internal/exec/... ./internal/train/...

# race-wide covers the remaining concurrent surface at full depth — the
# autopiped service path (worker pool, cache, singleflight, the
# kill/restart soak tests, the soak behind the test-only chaos middleware)
# and the observability registry. The race detector is the repository's data-race check;
# race-all is both halves, and CI's race matrix runs them as separate jobs.
race-wide:
	$(GO) test -race ./internal/service/... ./internal/obs/...

race-all: race-core race-wide

# bench-smoke compiles and runs every micro-benchmark exactly once — planner,
# exec event loop, schedule dependency graphs, slicer, obs registry — as a
# correctness smoke, not a measurement; the -run filter skips tests. The
# gated end-to-end numbers come from perfbench (BENCHMARK.json), and the
# hot-path allocation counts are pinned by package tests (DESIGN.md §13).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# perfbench-test runs the repository benchmark's own tests. perfbench is a
# Go module of its own (it imports this one through a replace directive), so
# the root `go test ./...` does not reach it.
perfbench-test:
	cd perfbench && $(GO) test ./...

# experiments-smoke runs the evaluation harness through its command: every
# experiment id, the -csv writer and the exit status, which the package
# tests (calling experiments.Env directly) do not reach.
experiments-smoke:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/experiments -exp all -csv "$$dir" >/dev/null || exit 1; \
	n="$$(ls "$$dir" | wc -l)"; \
	if [ "$$n" -ne 17 ]; then echo "experiments-smoke: $$n CSV files, want 17"; exit 1; fi

# fmt-check fails (with the offending files listed) if anything is not
# gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# tier1 is the repository's baseline gate (ROADMAP.md).
tier1: build test

# verify runs everything CI would: formatting, go vet, the full test suite
# under the race detector, the deep race pass over the planner engine and
# the whole service/observability surface (race-all), a one-shot benchmark
# smoke, the sanitized executions, the experiments command smoke, the tier-1
# gate, and the repository benchmark's own tests. The determinism and
# typed-error invariants are the root TestSimclock and TestErrsentinel
# (DESIGN.md §11). The daemon's end-to-end and kill/restart soak checks,
# and the soak behind the test-only chaos middleware, are tier-1 tests in
# internal/service. (CI additionally runs fuzz-smoke, kept out of verify so
# the local gate stays fast.)
verify: fmt-check vet tier1 perfbench-test race race-all bench-smoke sanitize experiments-smoke

clean:
	$(GO) clean ./...
	rm -rf bin
