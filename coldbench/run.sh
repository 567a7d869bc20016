#!/usr/bin/env bash
# Builds the coldtall binary and the coldbench harness from the checkout in
# the current directory, then runs one benchmark workload:
#
#   bash coldbench/run.sh --workload paper|serve|ingest --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/ (Go build cache, temporary stores, binaries, span files).
# Build time is not part of any metric: the harness starts its clocks only
# after both binaries exist.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/coldtall" || ! -f "$root/coldbench/go.mod" ]]; then
	echo "coldbench: run from the root of a coldtall checkout (go.mod, cmd/coldtall and coldbench/ must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/cache" "$build/config"
export GOCACHE="$build/cache/go-build"
export GOMODCACHE="$build/cache/mod"
export GOPATH="$build/cache/gopath"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export CGO_ENABLED=0

go build -o "$build/bin/coldtall" ./cmd/coldtall
(cd "$root/coldbench" && go build -o "$build/bin/coldbench" .)

exec "$build/bin/coldbench" -root "$root" -bin "$build/bin/coldtall" "$@"
