#!/usr/bin/env bash
# Builds emapsd and the e2ebench harness from this checkout, then runs the
# harness, which starts emapsd as a separate process per pass and drives it
# over loopback. Run from the repository root:
#
#   bash e2ebench/run.sh --workload die-binary --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs leave behind stays in .bench_build/ at
# the repository root: the Go build cache, and the toolchain's config and
# telemetry directory (XDG_CONFIG_HOME) too.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/emapsd" ]]; then
	echo "e2ebench: run from the root of a full checkout (go.mod and cmd/emapsd not found in $root)" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0
# Telemetry off: otherwise each go command may fork an upload process that
# outlives it.
echo off >"$out/config/go/telemetry/mode"

go build -C "$root" -o "$out/emapsd" ./cmd/emapsd
go build -C "$root/e2ebench" -o "$out/e2ebench" .
exec "$out/e2ebench" -emapsd "$out/emapsd" -workdir "$out" "$@"
