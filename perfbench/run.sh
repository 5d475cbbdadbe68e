#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it
# with the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload sgemm-cells --seed 1 --seconds 30 --trace 0
#
# Every build artefact (binary, Go build cache, toolchain state) stays
# under .bench_build in the checkout. The build needs the repository's
# go.mod and internal/ next to perfbench/, so in a directory holding
# only the benchmark it fails and nothing is printed on stdout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export XDG_CONFIG_HOME="$out/xdg" XDG_CACHE_HOME="$out/xdg-cache" HOME="$out/home"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
mkdir -p "$HOME"

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
(cd "$root/perfbench" && go build -trimpath -buildvcs=false -o "$out/perfbench" .) >&2
PERFBENCH_COMMIT="$commit" exec "$out/perfbench" "$@"
