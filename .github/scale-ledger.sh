#!/usr/bin/env bash
# Prints the scale sweep's deterministic ledger: the count rows (units
# count and ns) of `sbrbench -scale -rounds 1` at seed 1. Wall-time rows
# and the wire cell's allocations depend on the host and stay out. The
# sweep's full output is kept in .bench_build/scale.txt.
#
#   bash .github/scale-ledger.sh > .github/scale-ledger.txt      # refresh
#   bash .github/scale-ledger.sh | diff -u .github/scale-ledger.txt -   # check
#
# Exits non-zero when the build or the sweep fails.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
(cd "$root" && go build -o "$out/sbrbench" ./cmd/sbrbench)
"$out/sbrbench" -scale -rounds 1 -seed 1 > "$out/scale.txt"
awk '$3 == "count" || $3 == "ns"' "$out/scale.txt"
