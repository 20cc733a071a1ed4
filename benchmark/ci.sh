#!/usr/bin/env bash
# Build, test and smoke the benchmark: every workload end to end and
# traced, at tiny sizes with every check on, then the two deliberate
# faults, which must make the run exit non-zero.
#
# Ready to be called from .github/workflows/ci.yml by a later change.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --release --offline --quiet
run=(cargo run --release --offline --quiet --)

for w in tune_reform serve_sat feed_durable mixed_rw; do
  for trace in 0 1; do
    echo "== smoke $w --trace $trace"
    "${run[@]}" --workload "$w" --seed 1 --smoke --seconds 2 --trace "$trace" | tail -n 1 \
      | python3 -c 'import json,sys; r=json.load(sys.stdin); assert r["correct"] and r["failed"]==0 and r["attempted"]>0, r'
  done
done

for fault in oracle wal; do
  echo "== fault $fault must be caught"
  if "${run[@]}" --workload tune_reform --seed 1 --smoke --seconds 1 --inject "$fault" >/dev/null 2>&1; then
    echo "the injected $fault fault went unnoticed" >&2
    exit 1
  fi
done
echo "benchmark ci: ok"
