#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sim-lazy --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, temporary files and the
# binary stay under .bench_build/ in that directory, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a p3q checkout (go.mod, internal/ and perfbench/ must be there)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
