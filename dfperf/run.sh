#!/usr/bin/env bash
# Builds the dfperf benchmark from source and runs it from the repository
# root:  bash dfperf/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
# Build output, the Go build cache, scratch stores and traced-run spans and
# profiles all stay under $CARGO_TARGET_DIR (default .bench_build); HOME
# points there too, so the go command writes no settings elsewhere, and the
# build never reaches for a toolchain or module download.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/home"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	HOME=$out/home XDG_CONFIG_HOME=$out/home GOTOOLCHAIN=local GOPROXY=off
(cd "$root/dfperf" && go build -o "$out/bin/dfperf" .) >&2
exec "$out/bin/dfperf" --dir "$out/dfperf" "$@"
