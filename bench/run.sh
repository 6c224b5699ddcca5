#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, for example:
#
#   bash bench/run.sh --workload static-gauss --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary all stay in
# .bench_build at the root of the checkout. The build fails, and the
# script exits non-zero without output on stdout, when the repository's
# sources are not next to the bench directory.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/bench" build -o "$out/bench" . >&2
exec "$out/bench" "$@"
