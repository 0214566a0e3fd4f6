#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; every argument is
# passed through. Build cache, binary and temp files all stay under
# .bench_build/ at the repo root, so nothing outside the checkout is
# written. Fails (non-zero, nothing printed) when the repo's Go module is
# not there to build against.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/toc-benchmark" .
exec "$build/toc-benchmark" -tmpdir "$build/tmp" "$@"
