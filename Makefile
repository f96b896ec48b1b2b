# starmagic — reproduction of "Implementation of Magic-sets in a Relational
# Database System" (Mumick & Pirahesh, SIGMOD 1994).

GO ?= go

.PHONY: all build test test-short race cover check fmt-check bench bench-json bench-check table1 sweep ablation fuzz examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./internal/engine/ ./internal/core/ ./internal/resource/ ./internal/storage/ ./internal/wal/ ./internal/wire/ ./internal/opt/ ./internal/catalog/

cover:
	$(GO) test -cover ./...

# Full verification gate: formatting, build, vet, tests, the race detector
# over the packages with intra-query parallelism and durability (executor,
# engine — including the crash-recovery suite in durable_test.go — the
# resource governor, and the write-ahead log), and the bench-regression
# gate against the recorded baseline. The repeated race run stresses the
# admission queue, commit against vacuum, and intern compaction against
# appends, whose races show only on some interleavings.
check: fmt-check
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/exec/... ./internal/engine/... ./internal/resource/... ./internal/storage/... ./internal/vec/... ./internal/wal/... ./internal/wire/... ./internal/opt/... ./internal/catalog/...
	$(GO) test -race -count=20 -run 'Admission|Txn|Vacuum|Compact' ./internal/resource/ ./internal/engine/ ./internal/storage/
	$(MAKE) bench-check

# gofmt as a gate: print offending files and fail if any exist.
fmt-check:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

# Table 1 + figure benchmarks (testing.B)
bench:
	$(GO) test -bench=. -benchmem .

# Machine-readable perf trajectory: row-key encoders, hash-join build,
# cold-vs-cached prepares, spill-on vs spill-off join/sort pairs,
# vectorized-vs-row executor pairs (ns/row), wire-protocol round-trips
# (COM_QUERY ns/row and cached COM_STMT_EXECUTE), MVCC transaction-commit
# latency plus DML throughput under an open streaming scan, ANALYZE and
# histogram-probe costs plus the skewed plan-pick A/B, WAL commit latency
# (per-commit fsync vs group commit) and recovery speed per MB of log, and
# Table-1 experiments (ns/op + allocs/op) written to $(BENCH_OUT).
# Override per change: make bench-json BENCH_OUT=BENCH_15.json
BENCH_OUT ?= BENCH_14.json
bench-json:
	$(GO) run ./cmd/benchjson -out $(BENCH_OUT)

# Regression gate: rerun the row-key, hash-join, and prepare-path
# microbenchmarks and fail if any is >15% slower than the BENCH_1.json
# baseline (threshold tunable via BENCH_THRESHOLD; benchmarks absent from
# the baseline pass trivially). The fresh run goes to a scratch file, not
# the baseline.
BENCH_THRESHOLD ?= 15
bench-check:
	$(GO) run ./cmd/benchjson -out .bench_check.json -experiments "" \
		-baseline BENCH_1.json -threshold $(BENCH_THRESHOLD)

# The paper's Table 1, normalized elapsed times
table1:
	$(GO) run ./cmd/table1 -reps 5

sweep:
	$(GO) run ./cmd/table1 -reps 3 -sweep

ablation:
	$(GO) run ./cmd/table1 -reps 3 -ablation

# Parser robustness fuzzing (bounded)
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s -run xxx ./internal/sql/
	$(GO) test -fuzz FuzzLikeMatch -fuzztime 15s -run xxx ./internal/exec/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/decisionsupport
	$(GO) run ./examples/extensibility
	$(GO) run ./examples/recursion
	$(GO) run ./examples/tpcd

clean:
	$(GO) clean -testcache
	rm -f .bench_check.json
