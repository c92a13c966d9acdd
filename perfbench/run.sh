#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload fig5_schemes_8x8 --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) and every
# trace output goes under .bench_build/ in the current directory, so a run
# reads and writes nothing outside the checkout. The benchmark module
# replaces the ftnoc module with the parent directory; without it the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off
export GOPROXY=off

# The go command keeps its user configuration and telemetry under HOME;
# point it into the build directory too.
(cd "$here" && HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOENV=off \
    go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
