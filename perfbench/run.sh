#!/usr/bin/env bash
# Builds perfbench from the sources in this checkout and runs it with
# the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload repro-week --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout, in
# $CARGO_TARGET_DIR (default .bench_build): the Go build cache, the
# binary, generated inputs and span files.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out/perfbench-work" "$@"
