#!/usr/bin/env bash
# Builds the CPX benchmark from source and runs one workload:
#
#   bash _perfbench/run.sh --workload engine-5k --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, the
# span files and every temporary directory stay under .bench_build/ in
# the checkout. The build needs the repository's own module in the
# parent directory; without it the build fails and the script exits
# non-zero before printing a result.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=mod
export GOPROXY=off

go -C "$bench" build -o "$out/perfbench" . >&2

cd "$root"
exec "$out/perfbench" -outdir "$out" "$@"
