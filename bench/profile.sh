#!/usr/bin/env bash
# Profiles one workload's timed phase and rolls the flat CPU time up by
# module: cpu_share.<module> is the share of samples whose leaf
# function is in that module (repro/internal/<module>, the benchmark
# itself, or the standard library's top-level package). Run from the
# repository root:
#
#   bash bench/profile.sh serve-ber [seconds]
#
# The profile and the run's output stay in .bench_build/.
set -euo pipefail
if [ $# -lt 1 ] || [ ! -f bench/env.sh ]; then
	echo "usage (from the repository root): bash bench/profile.sh <workload> [seconds]" >&2
	exit 2
fi
workload=$1
seconds=${2:-20}
. bench/env.sh
prof="$build/cpu-$workload.pprof"
bash bench/run.sh --workload "$workload" --seconds "$seconds" --cpuprofile "$prof" >"$build/profile-$workload.out"
go tool pprof -top -nodecount=1000000 -nodefraction=0 "$build/bench" "$prof" 2>/dev/null | awk '
	$2 ~ /%$/ && NF >= 6 {
		pct = $2; sub(/%/, "", pct)
		name = $6
		if (name ~ /^repro\/internal\//) { sub(/^repro\/internal\//, "", name) }
		else if (name ~ /^(repro\/bench|main)\./) { name = "bench" }
		sub(/[.\/].*/, "", name)
		share[name] += pct
	}
	END { for (m in share) printf "cpu_share.%s %.2f%%\n", m, share[m] }
' | sort -t' ' -k2 -gr
