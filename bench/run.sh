#!/usr/bin/env bash
# Builds the GOFMM benchmark from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash bench/run.sh --workload serve|replay --seed N --seconds S --trace 0|1
# The binary, the Go build cache, Go's own config files and the runs'
# temporary files, results and span dumps all stay under $CARGO_TARGET_DIR
# (default .bench_build/).
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off
go build -C "$root/bench" -o "$out/gofmmbench" .
exec "$out/gofmmbench" -workdir "$out/work" "$@"
