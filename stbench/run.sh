#!/usr/bin/env bash
# Builds sthistd and the benchmark program from the checkout it is run in,
# then runs one workload:
#
#   bash stbench/run.sh --workload plan-read --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything it writes (Go build
# cache, binaries, generated tables, data directories, span files) stays
# under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
# Telemetry off: otherwise the go command may start a detached child that
# outlives this script.
printf off > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/sthistd" ./cmd/sthistd
(cd stbench && go build -o "$out/stbench" .)
exec "$out/stbench" -sthistd "$out/sthistd" -state "$out" "$@"
