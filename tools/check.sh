#!/usr/bin/env bash
# Full verification gate:
#   1. src/ reads no environment variable (no getenv), then the default
#      build + complete test suite, then a smoke run of the examples no
#      other stage runs (quickstart, network_explorer, transform_tradeoff,
#      operator_search, export_network, schedule_timeline,
#      train_synthetic): each must exit 0 and print something; then a
#      negative control: every bench and example (bench_kernels aside)
#      must exit nonzero on --<selector>=bogus for each enumerated
#      selector its --help lists, instead of running a default,
#   2. ThreadSanitizer build running the suites that start threads
#      (test_thread_pool, test_telemetry, test_serve — test_serve replays
#      the serving engine's worker-determinism trace at 1/2/4 payload
#      threads, whose tensor mode runs the serial fast kernels from
#      several workers at once: the kernels' only concurrency, and two
#      engines on different kernel ISAs from two threads),
#   3. AddressSanitizer + UBSan build running the mapping/executor suites
#      (test_mapping, test_execute, test_systolic_sim, test_netplan,
#      test_serve), the differential harness (test_differential: the
#      generator's geometry products and the executor's raw-pointer
#      operand indexing are what the sanitizers see), the closed-form
#      evaluator's zoo grids (test_eval_fast), the CLI parser's
#      malformed-input table (test_util), the kernel differential suite
#      (test_kernels: the GEMM panel tails and linear's eight-row tail
#      lanes are raw pointer arithmetic under both ISAs; the harness's
#      engine links run the simulator's f64 kernel tails under both ISAs
#      too), the other
#      consumers of the cycle model's priced fold walk (test_attribution,
#      test_memory's fold traces) and the .fusenet parser's
#      malformed-record table (test_nets: overflow-checked counts),
#   4. Release (-O3) build running the kernel differential suite and the
#      simulator/executor engine differentials (test_kernels,
#      test_differential, plus test_systolic_sim and test_execute) plus a
#      bench_kernels smoke pass — the kernels' exactness contract and the
#      fast engine's bit-exactness against the reference engine must
#      survive full optimization, not just the default build (kernels.cpp
#      is -O3 in every build; sim_fast.cpp and the executor only in
#      Release),
#   5. telemetry identity: the sweep benches that take the telemetry
#      flags (bench_table1, bench_fig8d_scaling — the sweeps that record
#      spans) must print byte-identical output between a plain run and a
#      run with --trace-json and --stats-json attached (only footer lines
#      — see filter_bench_output — may differ),
#   6. backend equality: every table/figure bench that dispatches nn
#      kernels (its --help lists --kernel-backend) must print stdout and
#      CSVs byte-identical between --kernel-backend=fast and
#      --kernel-backend=reference. Both legs pin --kernel-isa=scalar:
#      only the scalar ISA is bit-exact against the reference kernels
#      (the SIMD ISAs are ULP-bounded, covered by test_kernels), so this
#      byte-level diff needs the scalar pin to stay meaningful. One
#      full-size scalar bench_accuracy_synth run must also reproduce
#      results/bench_accuracy_synth.txt and results/bench_accuracy.csv,
#      which are pinned to the scalar ISA,
#   7. sim backend equality: the simulator-driven examples
#      (simulate_network, simulate_layer, pe_heatmap) must print
#      byte-identical stdout under --sim-backend=fast and
#      --sim-backend=reference, simulate_network a second time on a 5x5
#      array at 13^2 with 12 channels, whose layers end on fold tails of
#      both layout-native simulator entries (matmul_wx, channelwise),
#      and a bench_sim smoke pass re-verifies the fast engine's
#      bit-exactness layer by layer,
#   8. telemetry export: profile_network's trace/stats JSON must parse,
#      in both the default per-layer view and the fused-schedule view —
#      and with --attribution-json the cycle-attribution report must
#      parse and its components must sum back to the totals,
#   9. perf-regression lab: fresh bench_fusion/bench_sim JSON artifacts
#      go through tools/bench_compare.py against the committed
#      results/BENCH_*.json baselines (deterministic metrics — cycles,
#      MACs, bytes, roofline bounds — must reproduce exactly on any
#      machine; wall-clock metrics only warn), a deliberately perturbed
#      copy must make the gate exit nonzero, and a record_bench.sh
#      ledger entry must round-trip through the same comparator,
#  10. serving lab: bench_serve's artifact (pinned to the scalar ISA, as
#      the committed one is: its fingerprint mixes tensor-mode checksums)
#      must parse, declare its metric_families, clear the >= 2x
#      dynamic-batching gate, and be byte-identical between --workers=1
#      and --workers=4; a fresh run diffs against the committed
#      results/BENCH_serve.json via
#      bench_compare, a perturbed speedup_vs_b1 (exact by declaration,
#      wall-looking by name) must exit nonzero, and serve_demo's replay
#      must be byte-deterministic across repeat runs,
#  11. design-space lab: bench_dse FUSE_CHECKs the closed-form
#      evaluator's equality against the plan path over an axis-spanning
#      config subset and the >= 10x configs-per-second gate internally;
#      one run's point-table CSV must equal results/bench_dse.csv, its
#      fresh BENCH_dse.json diffs against the committed baseline via
#      bench_compare (frontier rows exact, *_cps wall), and a perturbed
#      frontier latency must make the gate exit nonzero.
#
# Usage: tools/check.sh [build-dir] [tsan-build-dir] [asan-build-dir]
#        [release-build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
TSAN_DIR="${2:-build-tsan}"
ASAN_DIR="${3:-build-asan}"
RELEASE_DIR="${4:-build-release}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"
# Scratch space for every stage's outputs.
TELEMETRY_TMP="$(mktemp -d)"
trap 'rm -rf "$TELEMETRY_TMP"' EXIT

# Strips the lines a bench is allowed to vary between runs: the
# "sweep: ..." wall-time footer and any "# ..." comment footers.
# Every determinism diff goes through this one filter so new footer kinds
# are excluded in a single place.
filter_bench_output() {
  grep -vE '^(sweep:|#)' || true
}

echo "=== [1/11] no getenv in src/ + default build + full test suite + example smoke runs + bogus-selector control ==="
# Results are a function of code and flags only: no library code may read
# the environment.
if grep -rn getenv src/; then
  echo "src/ must not call getenv (matches above)" >&2
  exit 1
fi
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure
# The examples nothing else runs: each must exit 0 with non-empty stdout.
# They run in a scratch directory because export_network writes
# network.fusenet into its working directory.
SMOKE_EXAMPLES=(quickstart network_explorer transform_tradeoff
                operator_search export_network schedule_timeline
                train_synthetic)
mkdir -p "$TELEMETRY_TMP/examples"
for example in "${SMOKE_EXAMPLES[@]}"; do
  bin="$REPO_ROOT/$BUILD_DIR/examples/$example"
  [ -x "$bin" ] || { echo "missing $bin" >&2; exit 1; }
  (cd "$TELEMETRY_TMP/examples" && "$bin" > "$example.txt")
  if [ ! -s "$TELEMETRY_TMP/examples/$example.txt" ]; then
    echo "$example: printed nothing" >&2
    exit 1
  fi
  echo "$example: ok"
done
# Negative control: a typo in an enumerated flag must fail loudly, not
# run a default and exit 0. Every bench and example with a source (a
# stale binary in the build dir is skipped; bench_kernels hands its flags
# to google-benchmark) runs once per selector its --help lists, with the
# value "bogus", in the scratch directory, and must exit nonzero.
SELECTORS=(net variant mode arch task sched-mode kernel-backend kernel-isa
           sim-backend)
mkdir -p "$TELEMETRY_TMP/bogus"
rejected=0
for bin in "$REPO_ROOT/$BUILD_DIR"/bench/* "$REPO_ROOT/$BUILD_DIR"/examples/*
do
  name="$(basename "$bin")"
  src="$(basename "$(dirname "$bin")")/$name.cpp"
  [ -f "$bin" ] && [ -x "$bin" ] && [ -f "$src" ] || continue
  [ "$name" != bench_kernels ] || continue
  help="$("$bin" --help 2>&1)"
  for flag in "${SELECTORS[@]}"; do
    grep -q -- "^  --$flag " <<< "$help" || continue
    # The group's redirect also silences the shell's "Aborted" notice.
    if { (cd "$TELEMETRY_TMP/bogus" && "$bin" "--$flag=bogus"); } \
         > /dev/null 2>&1; then
      echo "$name --$flag=bogus: EXITED 0 (ran a default)" >&2
      exit 1
    fi
    rejected=$((rejected + 1))
  done
done
if [ "$rejected" -eq 0 ]; then
  echo "no binary lists a selector flag: the control checked nothing" >&2
  exit 1
fi
echo "bogus selector values: all $rejected (binary, flag) runs exit nonzero"

echo
echo "=== [2/11] ThreadSanitizer build + concurrency suites ==="
CONCURRENCY_TESTS=(test_thread_pool test_telemetry test_serve)
cmake -B "$TSAN_DIR" -S . -DFUSE_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_DIR" -j "$(nproc)" --target "${CONCURRENCY_TESTS[@]}"
for t in "${CONCURRENCY_TESTS[@]}"; do
  echo "--- $t (TSan) ---"
  "$TSAN_DIR/tests/$t"
done

echo
echo "=== [3/11] AddressSanitizer build + differential/mapping/executor/kernel/fold-walk/parser suites ==="
ASAN_TESTS=(test_differential test_mapping test_execute test_systolic_sim
            test_netplan test_serve test_eval_fast test_kernels
            test_attribution test_memory test_nets test_util)
cmake -B "$ASAN_DIR" -S . -DFUSE_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$ASAN_DIR" -j "$(nproc)" --target "${ASAN_TESTS[@]}"
for t in "${ASAN_TESTS[@]}"; do
  echo "--- $t (ASan) ---"
  "$ASAN_DIR/tests/$t"
done

echo
echo "=== [4/11] Release -O3 build: kernel + engine differentials + bench smoke ==="
RELEASE_TESTS=(test_kernels test_differential test_systolic_sim test_execute)
cmake -B "$RELEASE_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$RELEASE_DIR" -j "$(nproc)" \
  --target "${RELEASE_TESTS[@]}" bench_kernels
for t in "${RELEASE_TESTS[@]}"; do
  echo "--- $t (Release) ---"
  "$RELEASE_DIR/tests/$t"
done
echo "--- bench_kernels smoke (Release) ---"
"$RELEASE_DIR/bench/bench_kernels" --benchmark_min_time=0.01 > /dev/null
echo "bench_kernels smoke: ok"

echo
echo "=== [5/11] telemetry identity: plain run vs --trace-json/--stats-json ==="
for bench in bench_table1 bench_fig8d_scaling; do
  bin="$BUILD_DIR/bench/$bench"
  [ -x "$bin" ] || { echo "missing $bin" >&2; exit 1; }
  # Tracing and the stats export must never perturb a table.
  if diff <("$bin" | filter_bench_output) \
          <("$bin" --trace-json="$TELEMETRY_TMP/$bench.trace.json" \
               --stats-json="$TELEMETRY_TMP/$bench.stats.json" \
             | filter_bench_output); then
    echo "$bench: byte-identical with telemetry on"
  else
    echo "$bench: OUTPUT DIVERGED with telemetry on" >&2
    exit 1
  fi
done

echo
echo "=== [6/11] backend equality: --kernel-backend=fast vs reference ==="
# Every golden-producing bench (all of bench/ except the google-benchmark
# micro-bench, whose output is wall time) that dispatches nn kernels: a
# bench takes --kernel-backend only if it runs kernels, so its --help
# selects it. Each runs with --csv where supported, in a per-backend
# scratch dir; stdout and every CSV written must match byte-for-byte.
# bench_accuracy_synth runs real training, so it gets reduced arguments
# to keep the (much slower) reference leg short; the full-size evidence
# is the golden check after the loop: the committed accuracy golden is
# pinned to the scalar ISA, whose fast kernels are bit-exact with the
# reference (the AVX2 kernels round differently and train to other
# accuracies).
GOLDEN_BENCHES=(bench_table1 bench_fig8a_latency bench_fig8b_layerwise
                bench_fig8c_opdist bench_fig8d_scaling bench_overhead
                bench_intro_resnet bench_accuracy_synth bench_ria_analysis
                bench_ablation_broadcast bench_ablation_dataflow
                bench_ablation_memory bench_energy bench_width_mult
                bench_resolution bench_ablation_aspect bench_nos
                bench_pareto bench_fusion bench_serve)
KERNEL_BENCHES=()
for bench in "${GOLDEN_BENCHES[@]}"; do
  bin="$REPO_ROOT/$BUILD_DIR/bench/$bench"
  [ -x "$bin" ] || { echo "missing $bin" >&2; exit 1; }
  if "$bin" --help 2>&1 | grep -q -- '--kernel-backend'; then
    KERNEL_BENCHES+=("$bench")
  fi
done
if [ "${#KERNEL_BENCHES[@]}" -eq 0 ]; then
  echo "no golden bench lists --kernel-backend: nothing to compare" >&2
  exit 1
fi
for bench in "${KERNEL_BENCHES[@]}"; do
  bin="$REPO_ROOT/$BUILD_DIR/bench/$bench"
  extra=()
  if "$bin" --help 2>&1 | grep -q -- '--csv'; then
    extra+=(--csv)
  fi
  if [ "$bench" = bench_accuracy_synth ]; then
    extra+=(--seeds=1 --epochs=2 --train=64 --eval=32)
  fi
  # Pin the scalar ISA on both legs: only scalar is bit-exact against
  # the reference kernels, which is what makes a byte-level diff valid.
  for backend in fast reference; do
    dir="$TELEMETRY_TMP/$bench.$backend"
    mkdir -p "$dir"
    (cd "$dir" && "$bin" --kernel-backend="$backend" --kernel-isa=scalar \
       "${extra[@]}" | filter_bench_output > stdout.txt)
  done
  if diff -r "$TELEMETRY_TMP/$bench.fast" "$TELEMETRY_TMP/$bench.reference"
  then
    echo "$bench: backends byte-identical"
  else
    echo "$bench: OUTPUT DIVERGED between kernel backends" >&2
    exit 1
  fi
done
dir="$TELEMETRY_TMP/bench_accuracy_synth.golden"
mkdir -p "$dir"
(cd "$dir" && "$REPO_ROOT/$BUILD_DIR/bench/bench_accuracy_synth" \
   --kernel-isa=scalar --csv | filter_bench_output > stdout.txt)
if diff <(filter_bench_output < results/bench_accuracy_synth.txt) \
        "$dir/stdout.txt" &&
   cmp results/bench_accuracy.csv "$dir/bench_accuracy.csv"; then
  echo "bench_accuracy_synth: scalar run matches the committed golden"
else
  echo "bench_accuracy_synth: SCALAR RUN DIVERGED from results/" >&2
  exit 1
fi

echo
echo "=== [7/11] sim backend equality: --sim-backend=fast vs reference ==="
# The simulator-driven examples must print byte-identical stdout under
# either engine (the fast engine is bit-exact, cycles included).
# simulate_network runs twice: at its default shape, and on a 5x5 array
# at 13^2 with 12 channels, where every layer's fold walk ends on a tail.
SIM_RUNS=("simulate_network" "simulate_network --size=5 --hw=13 --channels=12"
          "simulate_layer" "pe_heatmap")
for run in "${SIM_RUNS[@]}"; do
  read -r -a argv <<< "$run"
  example="${argv[0]}"
  bin="$BUILD_DIR/examples/$example"
  [ -x "$bin" ] || { echo "missing $bin" >&2; exit 1; }
  "$bin" "${argv[@]:1}" --sim-backend=reference \
    > "$TELEMETRY_TMP/sim.reference.txt"
  "$bin" "${argv[@]:1}" --sim-backend=fast > "$TELEMETRY_TMP/sim.fast.txt"
  if diff "$TELEMETRY_TMP/sim.reference.txt" "$TELEMETRY_TMP/sim.fast.txt"
  then
    echo "$run: sim backends byte-identical"
  else
    echo "$run: OUTPUT DIVERGED between sim backends" >&2
    exit 1
  fi
done
# bench_sim aborts internally if any layer's fast result is not bit-exact
# against the reference, so a plain run is the layer-by-layer check.
"$BUILD_DIR/bench/bench_sim" > /dev/null
echo "bench_sim bit-exactness smoke: ok"

echo
echo "=== [8/11] telemetry export: profile_network JSON validity ==="
"$BUILD_DIR/examples/profile_network" --net mobilenet_v2 --variant fuse_full \
  --trace-json "$TELEMETRY_TMP/profile.json" \
  --stats-json "$TELEMETRY_TMP/profile.stats.json"
# The fused-schedule view exports through the same sink and must also
# produce valid JSON (segment spans, SRAM counter track, prefetch spans),
# plus the cycle-attribution report and its counter track.
"$BUILD_DIR/examples/profile_network" --net mobilenet_v2 --variant fuse_full \
  --sched-mode=fused \
  --trace-json "$TELEMETRY_TMP/profile.fused.json" \
  --stats-json "$TELEMETRY_TMP/profile.fused.stats.json" \
  --attribution-json "$TELEMETRY_TMP/profile.attribution.json"
python3 - "$TELEMETRY_TMP" <<'EOF'
import glob, json, os, sys
tmp = sys.argv[1]
paths = sorted(glob.glob(os.path.join(tmp, "*.json")))
assert paths, "no telemetry JSON written"
for path in paths:
    with open(path) as f:
        doc = json.load(f)
    if os.path.basename(path).endswith(
            ("trace.json", "profile.json", "profile.fused.json")):
        assert doc["traceEvents"], f"{path}: empty traceEvents"
# The attribution decomposition must sum back to its own totals, layer
# by layer and across the whole network (the binary FUSE_CHECKs the
# deeper identities; this re-checks the exported JSON independently).
with open(os.path.join(tmp, "profile.attribution.json")) as f:
    attr = json.load(f)
totals = attr["totals"]
assert sum(l["cycles"] for l in attr["layers"]) == totals["cycles"]
for l in attr["layers"]:
    assert l["compute_cycles"] + l["fill_drain_cycles"] == l["cycles"], \
        f"layer {l['name']}: split does not sum"
assert totals["compute_cycles"] + totals["fill_drain_cycles"] \
    == totals["cycles"]
assert totals["cycles"] + totals["dram_stall_cycles"] \
    == totals["bound_cycles"]
print(f"{len(paths)} telemetry JSON files parsed; attribution sums check")
EOF

echo
echo "=== [9/11] perf-regression lab: bench_compare vs committed baselines ==="
# Fresh machine-readable artifacts from the two deterministic-core
# benches, diffed against the committed baselines. Cycle counts, MAC and
# byte totals, and roofline bounds are model outputs and must reproduce
# exactly on any machine; the wall-clock columns (bench_sim's *_ms and
# speedups) were recorded elsewhere and only warn.
"$BUILD_DIR/bench/bench_fusion" --json="$TELEMETRY_TMP/BENCH_fusion.json" \
  > /dev/null
"$BUILD_DIR/bench/bench_sim" --json="$TELEMETRY_TMP/BENCH_sim.json" \
  > /dev/null
python3 tools/bench_compare.py results/BENCH_fusion.json \
  "$TELEMETRY_TMP/BENCH_fusion.json"
python3 tools/bench_compare.py results/BENCH_sim.json \
  "$TELEMETRY_TMP/BENCH_sim.json"
# The gate must actually gate: a single perturbed deterministic metric
# has to turn into a nonzero exit.
python3 - "$TELEMETRY_TMP" <<'EOF'
import json, os, sys
tmp = sys.argv[1]
with open(os.path.join(tmp, "BENCH_fusion.json")) as f:
    doc = json.load(f)
doc["rows"][0]["compute_cycles"] += 1
with open(os.path.join(tmp, "BENCH_fusion.perturbed.json"), "w") as f:
    json.dump(doc, f)
EOF
if python3 tools/bench_compare.py results/BENCH_fusion.json \
     "$TELEMETRY_TMP/BENCH_fusion.perturbed.json" --quiet; then
  echo "bench_compare FAILED to flag a perturbed baseline" >&2
  exit 1
fi
echo "bench_compare: perturbed artifact correctly rejected"
# History ledger round-trip: a record_bench.sh entry in a scratch ledger
# must compare clean against the raw artifact it wraps.
FUSE_HISTORY_DIR="$TELEMETRY_TMP/history" tools/record_bench.sh \
  "$TELEMETRY_TMP/BENCH_fusion.json"
python3 tools/bench_compare.py "$TELEMETRY_TMP/history/BENCH_fusion.jsonl" \
  "$TELEMETRY_TMP/BENCH_fusion.json" --quiet

echo
echo "=== [10/11] serving lab: bench_serve + serve_demo determinism ==="
# bench_serve FUSE_CHECKs the >= 2x dynamic-batching gate internally, so
# a clean exit is the throughput claim. The artifact must be
# byte-identical between worker counts: every number in it is a
# virtual-cycle scheduling decision or a seeded payload checksum, none
# of which may depend on payload-thread interleaving. Both runs pin the
# scalar ISA, as the committed artifact does, so the comparison below
# holds on any machine.
"$BUILD_DIR/bench/bench_serve" --kernel-isa=scalar --workers=1 \
  --json="$TELEMETRY_TMP/BENCH_serve.w1.json" > /dev/null
"$BUILD_DIR/bench/bench_serve" --kernel-isa=scalar --workers=4 \
  --json="$TELEMETRY_TMP/BENCH_serve.w4.json" > /dev/null
if diff "$TELEMETRY_TMP/BENCH_serve.w1.json" \
        "$TELEMETRY_TMP/BENCH_serve.w4.json"; then
  echo "bench_serve: artifact byte-identical across --workers=1/4"
else
  echo "bench_serve: ARTIFACT DIVERGED between worker counts" >&2
  exit 1
fi
python3 - "$TELEMETRY_TMP/BENCH_serve.w1.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["metric_families"] == {"exact": ["*"]}, \
    "BENCH_serve must declare every metric exact"
speedups = [r["speedup_vs_b1"] for r in doc["rows"]
            if r.get("experiment") == "saturation"]
assert speedups and max(speedups) >= 2.0, \
    f"serving gate: best speedup {max(speedups, default=0)} < 2x"
assert any(r.get("experiment") == "rate_sweep" for r in doc["rows"])
assert any(r.get("experiment") == "multi_tenant" for r in doc["rows"])
print(f"BENCH_serve.json valid; best saturation speedup "
      f"{max(speedups):.2f}x (gate >= 2x)")
EOF
python3 tools/bench_compare.py results/BENCH_serve.json \
  "$TELEMETRY_TMP/BENCH_serve.w1.json"
# The family declaration must actually bite: speedup_vs_b1 looks like a
# wall-clock metric by name, so only the metric_families machinery makes
# this small perturbation a hard failure.
python3 - "$TELEMETRY_TMP" <<'EOF'
import json, os, sys
tmp = sys.argv[1]
with open(os.path.join(tmp, "BENCH_serve.w1.json")) as f:
    doc = json.load(f)
for row in doc["rows"]:
    if "speedup_vs_b1" in row:
        row["speedup_vs_b1"] *= 1.05  # well inside the wall tolerance
with open(os.path.join(tmp, "BENCH_serve.perturbed.json"), "w") as f:
    json.dump(doc, f)
EOF
if python3 tools/bench_compare.py results/BENCH_serve.json \
     "$TELEMETRY_TMP/BENCH_serve.perturbed.json" --quiet; then
  echo "bench_compare FAILED to gate a perturbed exact-family metric" >&2
  exit 1
fi
echo "bench_compare: perturbed speedup_vs_b1 correctly rejected"
# serve_demo replays a canned trace; its whole printout (scheduling
# table, percentiles, metrics registry) must be reproducible.
"$BUILD_DIR/examples/serve_demo" > "$TELEMETRY_TMP/serve_demo.a.txt"
"$BUILD_DIR/examples/serve_demo" > "$TELEMETRY_TMP/serve_demo.b.txt"
if diff "$TELEMETRY_TMP/serve_demo.a.txt" "$TELEMETRY_TMP/serve_demo.b.txt"
then
  echo "serve_demo: replay byte-deterministic"
else
  echo "serve_demo: OUTPUT DIVERGED between runs" >&2
  exit 1
fi

echo
echo "=== [11/11] design-space lab: bench_dse equality + frontier baseline ==="
# A plain run is already the evaluator-equality grid and the >= 10x
# throughput gate (both FUSE_CHECKed inside the binary); its full point
# table must equal the committed CSV byte for byte, and its artifact's
# frontier rows must reproduce the committed baseline exactly.
dir="$TELEMETRY_TMP/bench_dse"
mkdir -p "$dir"
(cd "$dir" && "$REPO_ROOT/$BUILD_DIR/bench/bench_dse" --csv \
   --json="$dir/BENCH_dse.json" > stdout.txt)
if cmp results/bench_dse.csv "$dir/bench_dse.csv"; then
  echo "bench_dse: point table matches results/bench_dse.csv"
else
  echo "bench_dse: POINT TABLE DIVERGED from results/bench_dse.csv" >&2
  exit 1
fi
python3 tools/bench_compare.py results/BENCH_dse.json "$dir/BENCH_dse.json"
# The frontier rows are exact by declaration: nudging one latency within
# what a wall-clock tolerance would forgive must still fail the gate.
python3 - "$TELEMETRY_TMP" <<'EOF'
import json, os, sys
tmp = sys.argv[1]
with open(os.path.join(tmp, "bench_dse", "BENCH_dse.json")) as f:
    doc = json.load(f)
doc["rows"][0]["latency_ms"] *= 1.01
with open(os.path.join(tmp, "BENCH_dse.perturbed.json"), "w") as f:
    json.dump(doc, f)
EOF
if python3 tools/bench_compare.py results/BENCH_dse.json \
     "$TELEMETRY_TMP/BENCH_dse.perturbed.json" --quiet; then
  echo "bench_compare FAILED to gate a perturbed frontier latency" >&2
  exit 1
fi
echo "bench_compare: perturbed frontier latency correctly rejected"

echo
echo "all checks passed"
