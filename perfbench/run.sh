#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is started in and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write (Go build cache, temp files, the
# binary, job stores, span dumps) stays under .bench_build/ in the current
# directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
