#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it:
#
#   bash perfbench/run.sh --workload bootstrap|mobile|daemon --seed N --seconds S --trace 0|1
#
# Every file the build and the run write stays under .bench_build in the
# checkout. Build output goes to standard error, so the run's result
# stays the last line of standard output.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
