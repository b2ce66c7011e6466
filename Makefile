# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short bench bench-pipeline bench-pipeline-record bench-check bench-multicore experiments results examples vet fmt fmtcheck cover race check serve serve-smoke faults attacks multicore realbin

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The concurrency-heavy packages under the race detector: the parallel
# experiment runner, the pipeline it drives (including the block-cache
# differential and fuzz-corpus tests), the functional core the block
# executor calls into, trace capture/replay, the versioned wire format,
# the vcfrd job queue / worker pool, and the sharded fault-injection
# campaign runner, the sharded adversary-in-the-loop attack campaign, and
# the sharded multi-tenant interference campaign.
race:
	$(GO) test -race ./internal/harness ./internal/cpu ./internal/emu ./internal/trace ./internal/results ./internal/server ./internal/fault ./internal/attack ./internal/multicore

# The full pre-commit gate. `test` runs every fuzz corpus as seeds
# (including the ELF-parser and RV64-decoder corpora under
# internal/realbin/testdata/fuzz); `realbin` additionally verifies the
# checked-in fixture binaries against their generator and SHA-256 pins;
# `examples` diffs every example's stdout against its transcript.
check: build vet fmtcheck test race realbin examples

# The real-binary front end's own wall: verify the checked-in ELF fixtures
# (generator-identical + pin-clean), then run the parser/decoder/lifter
# tests and fuzz seeds.
realbin:
	./scripts/realbin_fixtures.sh
	$(GO) test ./internal/realbin/...

# perfbench is its own module (./... above stops at its go.mod); vetting it
# here keeps the benchmark building against the cpu/harness APIs it calls.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

fmt:
	gofmt -l -w .

# Fail if any file is not gofmt-clean (the CI variant of fmt).
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

cover:
	$(GO) test -cover ./internal/...

# Every table and figure of the paper, as testing.B benchmarks, plus the
# archived pipeline baseline (BENCH_pipeline.json).
bench: bench-pipeline
	$(GO) test -bench=. -benchmem ./...

# The fig13+fig14 DRC-sweep acceptance benchmark, guarded against the
# budget archived in BENCH_pipeline.json: fail on a >15% ns/instr
# regression, re-pin the file when the fresh numbers are faster.
bench-pipeline: bench-check

bench-check:
	./scripts/bench_check.sh

# Unconditionally re-record BENCH_pipeline.json (first pin on a new
# machine, or after an accepted regression).
bench-pipeline-record:
	./scripts/bench_pipeline.sh

# Scheduled-cluster throughput (ns/instr), archived as BENCH_multicore.json
# and held within 1.5x of the single-core execute budget.
bench-multicore:
	./scripts/bench_multicore.sh

# Every table and figure, as readable text tables.
experiments:
	$(GO) run ./cmd/experiments -experiment all

# Regenerate the archived experiment output. Only the tables go to stdout
# (wall times go to stderr), so the archive is byte-deterministic and CI
# fails when it drifts.
results:
	$(GO) run ./cmd/experiments -experiment all >docs/RESULTS.txt

# Run the simulation service in the foreground (SIGINT/SIGTERM drain).
serve:
	$(GO) run ./cmd/vcfrd

# Boot vcfrd once, exercise every endpoint, prove simulate output is
# byte-identical to vcfrsim -stats-json and every sweep and campaign job's
# envelope byte-identical to experiments -stats-json, check the campaign
# counters on /metrics, and drain on SIGTERM.
serve-smoke:
	./scripts/serve_smoke.sh

# The canonical fault-injection campaign as a text coverage table.
faults:
	$(GO) run ./cmd/experiments -mode faults

# The canonical adversary-in-the-loop campaign as a text work-factor table.
attacks:
	$(GO) run ./cmd/experiments -mode attacks

# The canonical multi-tenant interference campaign as a text table.
multicore:
	$(GO) run ./cmd/experiments -mode multicore

# Run every example and diff its stdout against its checked-in transcript
# (examples/<name>/stdout.golden); the examples are deterministic, so any
# diff is a behaviour change.
examples:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for dir in examples/*/; do \
		dir="$${dir%/}"; name="$$(basename "$$dir")"; \
		$(GO) run "./$$dir" >"$$tmp/$$name.out" || exit 1; \
		diff -u "$$dir/stdout.golden" "$$tmp/$$name.out" || exit 1; \
		echo "examples/$$name: ok"; \
	done
