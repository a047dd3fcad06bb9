#!/usr/bin/env bash
# Builds the round-loop benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash roundbench/run.sh --workload cnn-fedca --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write —
# the Go build cache, the binary, result and trace files — goes under
# .bench_build/ in the current directory. The first run builds the standard
# library into that cache (about half a minute on two cores); later runs
# rebuild only what changed.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/roundbench" .)
exec "$out/roundbench" "$@"
