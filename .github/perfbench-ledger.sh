#!/usr/bin/env bash
# Prints perfbench's deterministic ledger: for each workload at seed 1,
# 4 s, traced, the output digest line, the op-count rows and
# daemon.snapshot_bytes. Timing, gc.*, tracing.*, shard.cpu_per_wall and
# daemon.rpc_ms.p50 rows depend on the host and stay out. Each run's full
# output is kept under .bench_build/ledger/.
#
#   bash .github/perfbench-ledger.sh > .github/perfbench-ledger.txt      # refresh
#   bash .github/perfbench-ledger.sh | diff -u .github/perfbench-ledger.txt -   # check
#
# Exits 1 when a run fails, is not correct, or has failed operations.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/ledger"
mkdir -p "$out"
for w in bootstrap mobile daemon; do
  run="$out/$w.txt"
  if ! bash "$root/perfbench/run.sh" --workload "$w" --seed 1 --seconds 4 --trace 1 > "$run" ||
    ! tail -n 1 "$run" | jq -e '.correct == true and .failed == 0' > /dev/null; then
    cat "$run" >&2
    echo "perfbench $w: the run failed, was not correct, or had failed operations" >&2
    exit 1
  fi
  grep -E '^outputs ' "$run"
  grep -E '^(radio|wire|identity|ndp|core|audit)\.' "$run" | grep -v 'self_'
  grep -E '^daemon\.snapshot_bytes ' "$run"
done
