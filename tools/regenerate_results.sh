#!/usr/bin/env bash
# Rebuilds everything, runs the full test suite, then regenerates every
# table/figure with CSV output into results/.
#
# The manifest of legitimate outputs is bench/*.cpp: only binaries with
# a matching source may run (a stale binary in the build dir — e.g. a
# renamed or deleted bench — would otherwise silently emit orphan
# artifacts), and after the run every file in results/ (the history/
# ledger and the two-build BENCH_sweep.json aside) must have been
# rewritten by this run. Anything else — editor
# droppings, build-system strays, outputs of deleted benches — fails
# the script with a listing instead of riding along into a commit.
#
# Usage: tools/regenerate_results.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
RESULTS_DIR="$REPO_ROOT/results"

cd "$REPO_ROOT"
cmake -B "$BUILD_DIR" -G Ninja
cmake --build "$BUILD_DIR"
ctest --test-dir "$BUILD_DIR" --output-on-failure

mkdir -p "$RESULTS_DIR"
STAMP="$(mktemp "$RESULTS_DIR/.regen_stamp.XXXXXX")"
trap 'rm -f "$STAMP"' EXIT

cd "$RESULTS_DIR"
for bench in "$REPO_ROOT/$BUILD_DIR"/bench/bench_*; do
  [ -f "$bench" ] && [ -x "$bench" ] || continue  # skip cmake artifacts
  name="$(basename "$bench")"
  if [ ! -f "$REPO_ROOT/bench/$name.cpp" ]; then
    echo "ERROR: $name has no bench/$name.cpp source — stale binary in" \
         "$BUILD_DIR; refusing to emit unmanifested results" >&2
    exit 1
  fi
  echo "=== $name ==="
  # bench_kernels (google-benchmark) and bench_ria_analysis take no --csv.
  if [ "$name" = bench_kernels ]; then
    # Machine-readable perf rows (op, backend, isa, ns/op, GFLOP/s) ride
    # along with provenance and metric_families. The suite's fast_scalar
    # legs pin --kernel-isa=scalar, so
    # the artifact records the scalar-vs-SIMD split of every operator on
    # the producing machine next to the reference-vs-fast split.
    "$bench" --json="$RESULTS_DIR/BENCH_kernels.json" | tee "$name.txt"
  elif [ "$name" = bench_sim ]; then
    # Simulator engine rows (reference/fast median ms, spreads, speedups)
    # with provenance and metric_families.
    "$bench" --json="$RESULTS_DIR/BENCH_sim.json" | tee "$name.txt"
  elif [ "$name" = bench_fusion ]; then
    # Network-scheduler rows: per-layer vs fused roofline per network x
    # variant, with the proven never-slower bound savings.
    "$bench" --json="$RESULTS_DIR/BENCH_fusion.json" --csv | tee "$name.txt"
  elif [ "$name" = bench_dse ]; then
    # Design-space-explorer rows: the Pareto frontier over the full
    # ArrayConfig grid plus the closed-form evaluator's configs-per-second
    # against the plan-materializing baseline (>= 10x gate FUSE_CHECKed
    # inside the bench). Frontier rows are exact; *_cps and
    # speedup_vs_plan are wall-clock and only warn in bench_compare.
    "$bench" --json="$RESULTS_DIR/BENCH_dse.json" --csv | tee "$name.txt"
  elif [ "$name" = bench_serve ]; then
    # Serving-engine rows: saturation throughput (batch-1 vs dynamic
    # batching, >= 2x gate), open-loop rate sweep percentiles, and the
    # multi-tenant fingerprint. The fingerprint mixes tensor-mode
    # checksums, so it is pinned to the scalar ISA like the accuracy
    # golden; every other number is cycle-domain. So the artifact is
    # byte-reproducible on any machine.
    "$bench" --kernel-isa=scalar --json="$RESULTS_DIR/BENCH_serve.json" \
      --csv | tee "$name.txt"
  elif [ "$name" = bench_accuracy_synth ]; then
    # Training accuracies depend on every rounding of every step, so the
    # golden is pinned to the scalar ISA: bit-exact with the reference
    # kernels, and the same on every machine (the AVX2 kernels are
    # ULP-bounded and train to other accuracies).
    "$bench" --kernel-isa=scalar --csv | tee "$name.txt"
  elif "$bench" --help 2>&1 | grep -q -- '--csv'; then
    "$bench" --csv | tee "$name.txt"
  else
    "$bench" | tee "$name.txt"
  fi
  echo
done

# Manifest sweep: every file here must be fresher than the run stamp.
# results/history/ is the append-only perf ledger (tools/record_bench.sh)
# and is exempt — benches never write it. So is BENCH_sweep.json: a
# before/after timing of two build trees (tools/bench_sweep.py), which
# one tree cannot regenerate.
mapfile -t strays < <(find "$RESULTS_DIR" -maxdepth 1 -type f \
  ! -newer "$STAMP" ! -name "$(basename "$STAMP")" \
  ! -name BENCH_sweep.json | sort)
if [ "${#strays[@]}" -gt 0 ]; then
  echo "ERROR: results/ contains files no manifest bench regenerated:" >&2
  printf '  %s\n' "${strays[@]}" >&2
  echo "delete them (or restore their bench) and re-run" >&2
  exit 1
fi

echo "results written to $RESULTS_DIR"
