#!/usr/bin/env bash
# Prints the examples' ledger: each of the four examples is built, run
# twice, and its output printed under one header line. Every example is
# deterministic, so the two runs must print the same bytes, and any change
# to what a run computes shows up as a diff against the committed ledger.
# The builds and both runs' outputs are kept under .bench_build/examples/.
#
#   bash .github/examples-ledger.sh > .github/examples-ledger.txt      # refresh
#   bash .github/examples-ledger.sh | diff -u .github/examples-ledger.txt -   # check
#
# Exits non-zero when a build or a run fails, or when two runs differ.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/examples"
mkdir -p "$out"
for e in quickstart rescue battlefield nameserver; do
  (cd "$root" && go build -o "$out/$e" "./examples/$e")
  "$out/$e" > "$out/$e.1"
  "$out/$e" > "$out/$e.2"
  if ! cmp "$out/$e.1" "$out/$e.2" >&2; then
    echo "examples/$e: two runs printed different output" >&2
    exit 1
  fi
  echo "== examples/$e"
  cat "$out/$e.1"
done
