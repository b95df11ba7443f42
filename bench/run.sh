#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. It builds the benchmark from source
# in the checkout it is started in and runs it with the arguments given,
# keeping everything it writes (Go build cache, temp dirs of the file
# store, the span file) under .bench_build/ of that checkout.
#
#   bash bench/run.sh --workload monitor_fleet --seed 3 --seconds 10 --trace 0
set -euo pipefail

# Without the module there is no program to measure; say so before the go
# command is started at all.
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $PWD: run from the root of a checkout that holds the program" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its own counters
export TMPDIR="$build/tmp"
# In a fresh config dir the go command is in telemetry mode "local" and
# forks a detached "go ** telemetry **" child that outlives it. The mode
# file is what `go telemetry off` writes; with it no child is started.
echo off >"$build/config/go/telemetry/mode"

go build -o "$build/clear-bench" ./bench
exec "$build/clear-bench" "$@"
