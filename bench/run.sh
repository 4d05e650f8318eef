#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it. Everything the
# build and the run write — Go's build cache, the binary, scratch archives
# and journals, traces — stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPROXY=off
(cd "$root/bench" && go build -o "$build/zbench" .) >&2
cd "$root"
exec "$build/zbench" "$@"
