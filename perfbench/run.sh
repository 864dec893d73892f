#!/usr/bin/env bash
# Builds cmd/shardd and the benchmark from the sources of the checkout it
# is started in, then runs one workload:
#
#   bash perfbench/run.sh --workload ward-local --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Build caches, binaries and run files
# all stay under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/shardd" ]; then
	echo "perfbench: run from the repository root (go.mod and cmd/shardd not found in $root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=

go build -o "$build/bin/shardd" ./cmd/shardd
(cd "$here" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -shardd "$build/bin/shardd" -work "$build/work" "$@"
