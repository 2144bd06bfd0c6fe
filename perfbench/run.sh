#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in, then runs it with the
# given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload office --seed 1 --seconds 10 --trace 0
# Build outputs, the Go build cache, the toolchain's own state and run data
# stay under .bench_build/.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ are required)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
