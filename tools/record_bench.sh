#!/usr/bin/env bash
# Appends bench result artifacts to the perf history ledger.
#
# Each input (default: every results/BENCH_*.json) gains one line in
# results/history/<name>.jsonl — a schema-versioned entry wrapping the
# raw document with the provenance needed to interpret it later:
#
#   {"schema": 1, "recorded_utc": ..., "git_sha": ..., "dirty": ...,
#    "host": ..., "nproc": ..., "source": ..., "data": {...}}
#
# tools/bench_compare.py reads these files directly (latest entry by
# default, --at=N for older ones), so two points in the ledger — or a
# ledger entry against a fresh run — diff with the same tool and the
# same deterministic/wall-clock rules. Artifacts that mix both metric
# families declare them via a top-level "metric_families" object (e.g.
# BENCH_serve.json marks its cycle-domain speedup_vs_b1 exact); the
# declaration is part of "data" and rides through the ledger verbatim,
# so old entries keep classifying correctly as rules evolve.
#
# Usage: tools/record_bench.sh [BENCH_json...]
#   FUSE_HISTORY_DIR overrides the ledger directory (for tests/CI).
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
HISTORY_DIR="${FUSE_HISTORY_DIR:-$REPO_ROOT/results/history}"

if [ "$#" -gt 0 ]; then
  inputs=("$@")
else
  shopt -s nullglob
  inputs=("$REPO_ROOT"/results/BENCH_*.json)
  shopt -u nullglob
fi
if [ "${#inputs[@]}" -eq 0 ]; then
  echo "record_bench: no BENCH_*.json artifacts found" >&2
  exit 1
fi

GIT_SHA="$(git -C "$REPO_ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"
# Dirty when any tracked file differs from HEAD, staged or not.
GIT_DIRTY=false
if ! git -C "$REPO_ROOT" diff --quiet HEAD 2>/dev/null; then
  GIT_DIRTY=true
fi

mkdir -p "$HISTORY_DIR"
for input in "${inputs[@]}"; do
  [ -f "$input" ] || { echo "record_bench: missing $input" >&2; exit 1; }
  name="$(basename "$input" .json)"
  ledger="$HISTORY_DIR/$name.jsonl"
  FUSE_RB_INPUT="$input" FUSE_RB_NAME="$name" FUSE_RB_SHA="$GIT_SHA" \
  FUSE_RB_DIRTY="$GIT_DIRTY" python3 - >> "$ledger" <<'EOF'
import datetime
import json
import os
import socket

with open(os.environ["FUSE_RB_INPUT"], encoding="utf-8") as f:
    data = json.load(f)  # refuse to record an unparseable artifact
entry = {
    "schema": 1,
    "recorded_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "git_sha": os.environ["FUSE_RB_SHA"],
    "dirty": os.environ["FUSE_RB_DIRTY"] == "true",
    "host": socket.gethostname(),
    "nproc": os.cpu_count(),
    "source": os.path.basename(os.environ["FUSE_RB_INPUT"]),
    "data": data,
}
print(json.dumps(entry, separators=(",", ":")))
EOF
  echo "recorded $name -> $ledger ($(wc -l < "$ledger") entries)"
done
