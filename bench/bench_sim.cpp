// Simulator engine benchmark: reference (per-cycle PE sweep) vs fast
// (wavefront interval engine) on MobileNet-V2 layer geometries at the
// paper's Table-1 array (64x64, output-stationary). Every layer is
// lowered through the array-mapping IR and simulated with run_plan,
// exactly the path simulate_network / profile_network pay — so the
// speedups here are the end-to-end win.
//
// Before timing, every layer's fast result is checked bit-exact against
// the reference (equal cycles/folds/MACs, memcmp-identical pe_busy); the
// bench aborts on any mismatch, making each run a standing verification
// of the docs/simulator.md contract at full optimization.
//
// Each engine's time is the median (and q3 - q1 spread) of separate
// run_plan calls, so one slow call cannot move a row.
//
// Usage: bench_sim [--json=<path>]
//   --json writes the machine-readable rows consumed by
//   results/BENCH_sim.json (tools/regenerate_results.sh), with the run's
//   provenance and the metric families tools/bench_compare.py gates on.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "nn/layer.hpp"
#include "systolic/mapping.hpp"
#include "systolic/sim.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/cpu_features.hpp"

using namespace fuse;

namespace {

struct Case {
  const char* name;
  nn::LayerDesc layer;
};

/// Representative MobileNet-V2 layers (ImageNet geometry): the stem, a
/// wide depthwise stage, the 14x14 bottleneck expansion/projection
/// pointwise pair, the FuSe row branch that replaces the depthwise, and
/// the classifier. Together they cover im2col, depthwise-column,
/// broadcast-line, and FC-shaped plans.
std::vector<Case> mobilenet_v2_cases() {
  return {
      {"stem_conv3x3_s2", nn::make_conv("stem", 3, 224, 224, 32, 3, 2, 1)},
      {"dw3x3_144_56x56", nn::make_depthwise("dw", 144, 56, 56, 3, 1, 1)},
      {"pw_expand_96_576", nn::make_pointwise("pw_exp", 96, 14, 14, 576)},
      {"pw_project_576_96", nn::make_pointwise("pw_proj", 576, 14, 14, 96)},
      {"fuse_row_96_14x14", nn::make_fuse_row("fuse", 96, 14, 14, 3, 1, 1)},
      {"fc_1280_1000", nn::make_fully_connected("fc", 1280, 1000)},
  };
}

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

constexpr int kReferenceReps = 3;
constexpr int kFastReps = 11;

/// Wall time of `reps` separate run_plan calls: the median and the
/// q3 - q1 spread (nearest rank), in ms.
struct Timing {
  double p50_ms = 0.0;
  double iqr_ms = 0.0;
};

Timing time_run_plan(systolic::SystolicArraySim& sim,
                     const systolic::MappingPlan& plan, int reps) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    sim.run_plan(plan);
    ms.push_back(elapsed_ms(t0));
  }
  std::sort(ms.begin(), ms.end());
  const auto rank = [&](int num, int den) {
    return ms[static_cast<std::size_t>((reps - 1) * num / den)];
  };
  return {rank(1, 2), rank(3, 4) - rank(1, 4)};
}

void check_bit_exact(const systolic::SimResult& fast,
                     const systolic::SimResult& reference,
                     const char* name) {
  FUSE_CHECK(fast.cycles == reference.cycles &&
             fast.folds == reference.folds &&
             fast.mac_ops == reference.mac_ops)
      << name << ": fast/reference counters diverge";
  FUSE_CHECK(fast.pe_busy.shape() == reference.pe_busy.shape() &&
             std::memcmp(fast.pe_busy.data(), reference.pe_busy.data(),
                         static_cast<std::size_t>(
                             fast.pe_busy.num_elements()) *
                             sizeof(float)) == 0)
      << name << ": fast/reference pe_busy bits diverge";
}

struct Row {
  std::string layer;
  std::uint64_t cycles = 0;
  std::uint64_t mac_ops = 0;
  Timing reference;
  Timing fast;
};

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

void write_json(const std::string& path, const std::vector<Row>& rows,
                double total_ref, double total_fast) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  FUSE_CHECK(f != nullptr) << "cannot write " << path;
  std::fprintf(
      f,
      "{\n  \"bench\": \"bench_sim\",\n  \"array\": \"64x64\",\n"
      "  \"network\": \"mobilenet_v2_layer_geometries\",\n"
      "  \"provenance\": {\"cores\": %u, \"isa\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"repetitions\": {\"reference\": %d, \"fast\": %d}, "
      "\"timing\": \"wall time of separate run_plan calls, median and "
      "q3-q1; one thread\"},\n"
      "  \"metric_families\": {\"exact\": [\"cycles\", \"mac_ops\"], "
      "\"wall_lower_better\": [\"*_ms\"], "
      "\"wall_higher_better\": [\"speedup_*\"]},\n"
      "  \"rows\": [\n",
      std::thread::hardware_concurrency(),
      util::cpu_features().to_string().c_str(), kCompiler, FUSE_BUILD_TYPE,
      kReferenceReps, kFastReps);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"layer\": \"%s\", \"cycles\": %llu, \"mac_ops\": %llu, "
        "\"reference_ms\": %.4f, \"reference_iqr_ms\": %.4f, "
        "\"fast_ms\": %.4f, \"fast_iqr_ms\": %.4f, "
        "\"speedup_fast\": %.2f}%s\n",
        r.layer.c_str(), static_cast<unsigned long long>(r.cycles),
        static_cast<unsigned long long>(r.mac_ops), r.reference.p50_ms,
        r.reference.iqr_ms, r.fast.p50_ms, r.fast.iqr_ms,
        r.reference.p50_ms / r.fast.p50_ms, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"total\": {\"reference_ms\": %.4f, \"fast_ms\": "
               "%.4f, \"speedup_fast\": %.2f}\n}\n",
               total_ref, total_fast, total_ref / total_fast);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_string("json", "", "write machine-readable rows here");
  flags.parse(argc, argv);

  systolic::ArrayConfig cfg = systolic::square_array(64);
  cfg.overlap_fold_drain = false;
  systolic::SystolicArraySim reference_sim(cfg,
                                           systolic::SimBackend::kReference);
  systolic::SystolicArraySim fast_sim(cfg, systolic::SimBackend::kFast);

  std::printf(
      "simulator engines on %s, MobileNet-V2 layer geometries\n"
      "(reference = per-cycle PE sweep, median of %d; fast = wavefront "
      "intervals, median of %d)\n\n"
      "%-20s %12s %12s %10s %10s %8s\n",
      cfg.to_string().c_str(), kReferenceReps, kFastReps, "layer", "cycles",
      "mac_ops", "ref ms", "fast ms", "speedup");

  std::vector<Row> rows;
  double total_ref = 0.0;
  double total_fast = 0.0;
  for (const Case& c : mobilenet_v2_cases()) {
    const systolic::MappingPlan plan = systolic::lower(c.layer, cfg);

    const systolic::SimResult reference = reference_sim.run_plan(plan);
    const systolic::SimResult fast = fast_sim.run_plan(plan);
    check_bit_exact(fast, reference, c.name);

    Row row;
    row.layer = c.name;
    row.cycles = reference.cycles;
    row.mac_ops = reference.mac_ops;
    row.reference = time_run_plan(reference_sim, plan, kReferenceReps);
    row.fast = time_run_plan(fast_sim, plan, kFastReps);

    total_ref += row.reference.p50_ms;
    total_fast += row.fast.p50_ms;
    std::printf("%-20s %12llu %12llu %10.2f %10.3f %7.1fx\n",
                row.layer.c_str(),
                static_cast<unsigned long long>(row.cycles),
                static_cast<unsigned long long>(row.mac_ops),
                row.reference.p50_ms, row.fast.p50_ms,
                row.reference.p50_ms / row.fast.p50_ms);
    rows.push_back(row);
  }

  std::printf(
      "\ntotal: reference %.1f ms, fast %.1f ms (%.1fx); all layers "
      "bit-exact across engines\n",
      total_ref, total_fast, total_ref / total_fast);

  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    write_json(json_path, rows, total_ref, total_fast);
  }
  return 0;
}
