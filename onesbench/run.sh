#!/usr/bin/env bash
# Builds onesd and the benchmark program from this checkout, then runs the
# program with the given arguments. Run it from the repository root:
#
#   bash onesbench/run.sh --workload ones-cold --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" HOME="$out" GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd onesbench && go build -o "$out/bin/" . repro/cmd/onesd) >&2
exec "$out/bin/onesbench" -onesd "$out/bin/onesd" -workdir "$out" "$@"
