#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload exact --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# trace files stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
cd "$root/perfbench"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod \
	GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
