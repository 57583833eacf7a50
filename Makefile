GO ?= go

.PHONY: all build test vet lint lint-waivers sanitize fuzz-smoke race race-core race-wide race-all bench-smoke perfbench-test fault-smoke fmt-check tier1 verify clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint builds autopipelint and runs it as a go vet -vettool over every
# package: simclock and errsentinel, the determinism and typed-error
# invariants (DESIGN.md §11). Unused //lint:allow waivers fail the run. The
# invariants the retired analyzers covered are executable checks: mutex
# copies in `make vet` (copylocks), lock pairing and worker-pool
# cancellation in `make test` and the race targets, hot-path allocations in
# the per-package testing.AllocsPerRun pins, and the checked-in JSON fixtures
# in the root TestCheckedInFixtures (DESIGN.md §11.6).
lint:
	$(GO) build -o bin/autopipelint ./cmd/autopipelint
	$(GO) vet -vettool=$(abspath bin/autopipelint) ./...

# lint-waivers lists every live //lint:allow suppression (file:line, analyzer,
# justification) outside fixture trees — the repository's complete waiver
# budget in one listing, for review. Stale waivers are caught by `make lint`
# itself: an //lint:allow that suppresses nothing is a reported finding.
lint-waivers:
	$(GO) build -o bin/autopipelint ./cmd/autopipelint
	./bin/autopipelint -waivers ./internal ./cmd

# sanitize executes the README quickstart schedules with the runtime
# happens-before sanitizer on: every op is checked against the dependency
# graph, the link model, and the activation-memory ledger as it executes.
# (The exec and train test suites force the sanitizer unconditionally; this
# target exercises the user-facing -sanitize path.)
sanitize:
	$(GO) run ./cmd/pipesim -model gpt2-345m -stages 4 -mbs 4 -micro 8 -sanitize
	$(GO) run ./cmd/pipesim -model gpt2-345m -stages 4 -mbs 4 -micro 8 -schedule sliced -sanitize
	$(GO) run ./cmd/pipesim -model gpt2-345m -stages 4 -mbs 4 -micro 8 -faults testdata/faults_basic.json -sanitize

# fuzz-smoke runs each fuzz target briefly: long enough to replay the corpus
# and explore a little, short enough for every CI run.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseSchedule -fuzztime=$(FUZZTIME) ./internal/schedule
	$(GO) test -run='^$$' -fuzz=FuzzParsePlan -fuzztime=$(FUZZTIME) ./internal/fault
	$(GO) test -run='^$$' -fuzz=FuzzSubmit -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzParseChaos -fuzztime=$(FUZZTIME) ./internal/service

# -short skips the Fig. 12 wall-clock-ordering test, whose relative search
# times the race detector's instrumentation distorts (it fails under -race
# even on the unmodified seed tree).
race:
	$(GO) test -race -short ./...

# race-core runs the planner engine, plan evaluator, discrete-event
# executor, and self-healing training driver under the race detector at
# full depth — the packages where the parallel search's worker pool, the
# simulation cache, and the fault-injected recovery paths live.
race-core:
	$(GO) test -race ./internal/core/... ./internal/plan/... ./internal/exec/... ./internal/train/...

# race-wide covers the remaining concurrent surface at full depth — the
# autopiped service path (worker pool, cache, singleflight, the
# crash-recovery soak tests, chaos middleware) and the observability
# registry fast path. The race detector is the repository's data-race check;
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

# fault-smoke executes a schedule under the checked-in basic fault plan —
# the README's resilience quickstart must keep working end to end.
fault-smoke:
	$(GO) run ./cmd/pipesim -model gpt2-345m -stages 4 -mbs 4 -micro 8 -faults testdata/faults_basic.json

# fmt-check fails (with the offending files listed) if anything is not
# gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# tier1 is the repository's baseline gate (ROADMAP.md).
tier1: build test

# verify runs everything CI would: formatting, static analysis (go vet plus
# autopipelint's simclock and errsentinel), the full test suite under the race
# detector, the deep race pass over the planner engine and the whole
# service/observability surface (race-all), a one-shot benchmark
# smoke, the fault-injection smoke, the sanitized executions, the tier-1
# gate, and the repository benchmark's own tests. The daemon's end-to-end,
# restart-resume, crash-recovery soak and chaos checks are tier-1 tests in
# internal/service. (CI additionally runs fuzz-smoke, kept out of verify so
# the local gate stays fast.)
verify: fmt-check vet lint tier1 perfbench-test race race-all bench-smoke fault-smoke sanitize

clean:
	$(GO) clean ./...
	rm -rf bin
