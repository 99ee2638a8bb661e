#!/usr/bin/env bash
# Builds the wire-level benchmark from the sources of this checkout and runs
# it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload bulk-wal --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The Go build cache, the binary and every
# file a build or run writes stay under .bench_build/; the toolchain and
# modules are never fetched.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files in
# the build directory too; GOENV=off ignores a user's go env file.
(
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
	export XDG_CONFIG_HOME="$build/config" GOENV=off
	export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
	cd "$root/perfbench" && go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"
