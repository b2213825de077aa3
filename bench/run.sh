#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash bench/run.sh --workload serve-ber --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh                          # every workload
#   bash bench/run.sh compare A/*.out B/*.out  # compare two sets of runs
#
# Everything the build and the runs leave behind goes to .bench_build/.
set -euo pipefail
if [ ! -f bench/env.sh ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
. bench/env.sh
if [ "${1:-}" = compare ]; then
	shift
	go build -C bench -o "$build/compare" ./compare
	exec "$build/compare" "$@"
fi
go build -C bench -o "$build/bench" .
exec "$build/bench" -out "$build/out" "$@"
