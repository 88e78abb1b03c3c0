#!/usr/bin/env bash
# Builds the daemons and the benchmark program from the tree under test,
# then runs one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload dse-hot --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (binaries, build cache, GOPATH,
# user config) stays under .bench_build/.
set -euo pipefail
for f in go.mod cmd/drmap-serve cmd/drmap-worker; do
	if [ ! -e "$f" ]; then
		echo "perfbench: $f not found; run from the root of a drmap checkout" >&2
		exit 2
	fi
done
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/gopath" "$out/config/go/telemetry"
# With telemetry on (the default is "local"), the go command starts a
# detached child once per fresh config dir to process its counters, and
# that child outlives the benchmark. Turning telemetry off stops it.
echo off > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -o "$out/bin/" ./cmd/drmap-serve ./cmd/drmap-worker
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --bin "$out/bin" "$@"
