#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout.
# Everything the Go toolchain writes (build cache, temp files, the binary)
# stays under .bench_build/ in the checkout; no network is used.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$out/stashperf" .)
cd "$root"
exec "$out/stashperf" "$@"
