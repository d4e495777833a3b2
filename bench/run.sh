#!/usr/bin/env bash
# Builds lsbench from source and runs it: `bash bench/run.sh <command> ...`.
# BENCHMARK.json's command is `bash bench/run.sh bench`, to which the
# driver appends --workload/--seed/--seconds/--trace.
#
# Everything the build and the run write stays inside the checkout:
# the Go build cache, the binary and the temp files under .bench_build/,
# results and traces under bench/out/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"

export LSBENCH_ROOT=$root
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# XDG_CONFIG_HOME: the go command keeps its telemetry counters there.
XDG_CONFIG_HOME=$build/config go build -C "$root/bench/lsbench" -o "$build/lsbench" . >&2
exec "$build/lsbench" "$@"
