#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root. The Go build cache, temporary files and tool configuration all
# live under the build directory ($CARGO_TARGET_DIR, default
# .bench_build), so a run reads and writes only inside the checkout.
# Every argument is passed to the benchmark; see bench/README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$build/overcell-bench" .
exec "$build/overcell-bench" -workdir "$build" "$@"
