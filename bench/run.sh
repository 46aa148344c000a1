#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the root of a checkout:
#
#   bash bench/run.sh --workload mesh8-serial --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays inside the checkout: the
# Go build cache, temporary files and the binary under .bench_build/, the
# result and trace files under bench/out/.
set -euo pipefail

# The benchmark measures the program in this checkout; without its source
# there is nothing to build, and no process is started.
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: no go.mod and internal/ here: run from the root of a checkout of the program" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
# With a fresh config directory the go command would start a detached
# telemetry sidecar that outlives it; mode "off" starts none.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/hornet-bench" ./bench
exec "$build/hornet-bench" "$@"
