#!/usr/bin/env bash
# Builds pcserve and the benchmark from the checkout this script sits in,
# then runs the benchmark with the given arguments, for example:
#
#   bash benchmark/run.sh --workload search-uniform --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write goes under .bench_build/ at the
# root of the checkout: the Go build cache, the binaries, the stores
# (removed when the run ends) and the trace files.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd "$root"
# With telemetry on, the go command starts a detached sidecar process that
# outlives this script; `go telemetry off` itself starts none.
go telemetry off
go build -o "$out/bin/pcserve" ./cmd/pcserve
(cd benchmark && go build -o "$out/bin/servebench" .)
exec "$out/bin/servebench" -pcserve "$out/bin/pcserve" -work "$out" "$@"
