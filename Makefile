# Convenience targets; everything here is plain `go` underneath.

# Pipelines must fail when `go test` fails, not just when the final
# benchdelta stage does.
SHELL       := /bin/bash
.SHELLFLAGS := -o pipefail -c

# The benchmarks tracked by CI's bench-delta job (cmd/benchdelta):
# the engine-dispatched paths (one per package) on the word-parallel
# engine. Serial twins are not tracked: the cross-engine suites
# already prove them equal, and on a small runner they measure nothing.
BENCH_PATTERN := Trace|BERWaterfall|AccuracyVsLength|OptimalSpacing|GammaVideo|SweepEngine|ServeFig
BENCH_PKGS    := ./internal/transient ./internal/core ./internal/image ./internal/dse ./internal/serve
# 10 iterations per count: at 3x, run-to-run scheduler jitter on a
# small runner exceeds the 30% gate and the delta measures noise.
BENCH_FLAGS   := -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime=10x -count=3

.PHONY: test lint lint-list bench-delta bench-baseline

test:
	go build ./... && go test ./...

# The repo-convention static analyzers (cmd/osclint): determinism,
# enginetest registration, error propagation, map-iteration order,
# hot-loop allocation. Fails on any unsuppressed finding — what CI's osclint
# job runs.
lint:
	go run ./cmd/osclint ./...

# Everything the analyzers see, suppressed findings included (with
# their //osclint:ignore reasons), without failing the make.
lint-list:
	go run ./cmd/osclint -all -exitzero ./...

# Record this machine's numbers and gate them against the committed
# baseline — what CI's bench-delta job runs.
bench-delta:
	go test $(BENCH_FLAGS) $(BENCH_PKGS) \
	  | go run ./cmd/benchdelta -out BENCH_PR5.json -baseline BENCH_BASELINE.json -threshold 0.30

# Refresh the committed baseline (run on the reference machine — CI's
# runner class — and commit the result).
bench-baseline:
	go test $(BENCH_FLAGS) $(BENCH_PKGS) \
	  | go run ./cmd/benchdelta -update -baseline BENCH_BASELINE.json
