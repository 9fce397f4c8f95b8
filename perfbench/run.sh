#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload core-mix --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binary, temporary state,
# span files) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" || ! -f "$root/results/figures_quick.txt" ]]; then
	echo "perfbench: run from the root of a full source checkout (go.mod, perfbench/, results/ required)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp" "$build/bin"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
