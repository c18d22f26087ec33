// Design-space-explorer benchmark: the closed-form evaluator's
// configs-per-second against the plan-materializing baseline, plus the
// Pareto frontier artifact.
//
// Three parts:
//   1. Equality: on a config subset spanning every axis, the closed-form
//      evaluator's roofline (bound/compute/memory cycles, total bytes)
//      is FUSE_CHECKed equal to plan_roofline(plan_network(...)) for
//      every workload model, in BOTH schedule modes — the bench aborts
//      on any mismatch before a single timing is taken (the bench_sim
//      idiom: every run is a standing verification of the
//      sched/eval_fast.hpp contract).
//   2. Throughput: the subset is then scored by both paths
//      single-threaded and the full grid by the evaluator; the
//      configs-per-second ratio must clear the >= 10x gate
//      (FUSE_CHECKed, like bench_serve's 2x batching gate).
//   3. Frontier: the full-grid explore() call is timed as the median of
//      kExploreReps calls (explore_cps), and its result is printed and
//      written as CSV/JSON. Everything except the "# ..." wall-clock lines
//      is byte-deterministic.
//
// The schedule mode is fused: the explorer always plans fused (its
// latencies are never worse).
//
// Usage: bench_dse [--csv] [--json=<path>]
//   --csv writes bench_dse.csv (the full point table, frontier column);
//   --json writes the machine-readable artifact for
//   results/BENCH_dse.json (tools/regenerate_results.sh).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "dse/explore.hpp"
#include "sched/netplan.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/cpu_features.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;

namespace {

constexpr int kExploreReps = 5;

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The plan-materializing baseline: what every sweep paid before
/// sched/eval_fast — lower every layer, fold the plans into a
/// NetworkPlan, take its roofline.
std::uint64_t plan_path_bound_cycles(
    const dse::DesignPoint& point,
    const std::vector<nets::NetworkModel>& workload, sched::SchedMode mode) {
  std::uint64_t bound = 0;
  for (const nets::NetworkModel& model : workload) {
    const sched::NetworkPlan plan =
        sched::plan_network(model, point.cfg, point.mem, mode);
    bound += sched::plan_roofline(plan).bound_cycles;
  }
  return bound;
}

std::uint64_t fast_path_bound_cycles(
    const dse::DesignPoint& point,
    const std::vector<nets::NetworkModel>& workload, sched::SchedMode mode) {
  std::uint64_t bound = 0;
  for (const nets::NetworkModel& model : workload) {
    bound += sched::eval_network_fast(model, point.cfg, point.mem, mode)
                 .roofline.bound_cycles;
  }
  return bound;
}

void write_json(const std::string& path, const dse::ExploreResult& result,
                std::size_t subset_size, double plan_cps, double fast_cps,
                double explore_cps) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  FUSE_CHECK(f != nullptr) << "cannot write " << path;
  // Family declaration order matters (first match wins): the wall
  // metrics are carved out before the exact catch-all claims the rest.
  std::fprintf(f,
               "{\n  \"bench\": \"bench_dse\",\n"
               "  \"workload\": \"paper_networks_x_baseline_full_half\",\n"
               "  \"provenance\": {\"cores\": %u, \"isa\": \"%s\", "
               "\"compiler\": \"%s\", \"build_type\": \"%s\", "
               "\"repetitions\": {\"plan\": 1, \"fast\": 1, "
               "\"explore\": %d}, "
               "\"timing\": \"wall time, one thread: plan_cps and fast_cps "
               "score the equality subset once each; explore_cps is the "
               "full grid at the median explore() call\"},\n"
               "  \"metric_families\": {\n"
               "    \"wall_higher_better\": [\"*_cps\", "
               "\"speedup_vs_plan\"],\n"
               "    \"exact\": [\"*\"]\n  },\n  \"rows\": [\n",
               std::thread::hardware_concurrency(),
               util::cpu_features().to_string().c_str(), kCompiler,
               FUSE_BUILD_TYPE, kExploreReps);
  for (std::size_t i = 0; i < result.front.entries().size(); ++i) {
    const dse::ParetoEntry& entry = result.front.entries()[i];
    const dse::DesignPoint& point = result.points[entry.id];
    std::fprintf(
        f,
        "    {\"config\": \"%s\", \"bound_cycles\": %llu, "
        "\"latency_ms\": %.6f, \"area_mm2\": %.6f, \"power_w\": %.6f}%s\n",
        point.label().c_str(),
        static_cast<unsigned long long>(result.bound_cycles[entry.id]),
        entry.obj.latency_ms, entry.obj.area_mm2, entry.obj.power_w,
        i + 1 < result.front.entries().size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n  \"total\": {\"configs\": %zu, \"frontier_size\": %zu, "
      "\"points_pruned\": %llu, \"equality_subset\": %zu, "
      "\"plan_cps\": %.2f, \"fast_cps\": %.2f, \"explore_cps\": %.2f, "
      "\"speedup_vs_plan\": %.2f}\n}\n",
      result.points.size(), result.front.entries().size(),
      static_cast<unsigned long long>(result.front.pruned()), subset_size,
      plan_cps, fast_cps, explore_cps, fast_cps / plan_cps);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_bool("csv", false, "also write bench_dse.csv");
  flags.add_string("json", "", "write machine-readable results to <path>");
  flags.parse(argc, argv);

  const dse::DseAxes axes;
  const std::vector<dse::DesignPoint> points =
      dse::enumerate_design_points(axes);
  const std::vector<nets::NetworkModel> workload =
      dse::default_dse_workload();
  // Pinned: the explorer's schedule (see the file comment).
  const sched::SchedMode mode = sched::SchedMode::kFused;

  // Every 15th point: 12 of 180, hitting every shape, both broadcast
  // settings, and every pipelining/datapath/SRAM value at least once
  // (stride 15 is coprime to the 36-point and 18-point inner blocks).
  std::vector<dse::DesignPoint> subset;
  for (std::size_t i = 0; i < points.size(); i += 15) {
    subset.push_back(points[i]);
  }

  std::printf(
      "Closed-form evaluator vs plan-materializing baseline "
      "(%zu-model workload, fused schedule)\n\n",
      workload.size());

  // --- 1. equality gate (before any timing) ---------------------------------
  for (const dse::DesignPoint& point : subset) {
    for (sched::SchedMode check_mode :
         {sched::SchedMode::kPerLayer, sched::SchedMode::kFused}) {
      for (const nets::NetworkModel& model : workload) {
        const sched::NetworkPlan plan = sched::plan_network(
            model, point.cfg, point.mem, check_mode);
        const sched::NetworkRoofline oracle = sched::plan_roofline(plan);
        const sched::NetworkEval ev = sched::eval_network_fast(
            model, point.cfg, point.mem, check_mode);
        FUSE_CHECK(ev.total_cycles == plan.total_cycles &&
                   ev.roofline.bound_cycles == oracle.bound_cycles &&
                   ev.roofline.compute_cycles == oracle.compute_cycles &&
                   ev.roofline.memory_cycles == oracle.memory_cycles &&
                   ev.roofline.total_bytes == oracle.total_bytes)
            << model.name << " on " << point.label() << " ("
            << sched_mode_name(check_mode)
            << "): closed-form evaluator diverged from the plan path";
      }
    }
  }
  std::printf("equality: %zu configs x %zu models x 2 modes match the "
              "plan path exactly\n\n",
              subset.size(), workload.size());

  // --- 2. throughput: both paths single-threaded on the subset --------------
  const auto t_plan = std::chrono::steady_clock::now();
  std::uint64_t plan_checksum = 0;
  for (const dse::DesignPoint& point : subset) {
    plan_checksum += plan_path_bound_cycles(point, workload, mode);
  }
  const double plan_ms = elapsed_ms(t_plan);

  const auto t_fast = std::chrono::steady_clock::now();
  std::uint64_t fast_checksum = 0;
  for (const dse::DesignPoint& point : subset) {
    fast_checksum += fast_path_bound_cycles(point, workload, mode);
  }
  const double fast_ms = elapsed_ms(t_fast);
  FUSE_CHECK(plan_checksum == fast_checksum)
      << "timed legs disagree: plan " << plan_checksum << " vs fast "
      << fast_checksum;

  const double plan_cps = 1e3 * static_cast<double>(subset.size()) / plan_ms;
  const double fast_cps = 1e3 * static_cast<double>(subset.size()) / fast_ms;
  const double speedup = fast_cps / plan_cps;
  // The headline gate: a sweep that still materializes MappingPlans is
  // at least an order of magnitude too slow for this grid.
  FUSE_CHECK(speedup >= 10.0)
      << "evaluator throughput gate: " << speedup << "x < 10x";

  // --- 3. the frontier over the full grid -----------------------------------
  dse::ExploreOptions options;
  options.mode = mode;
  dse::ExploreResult result;
  std::vector<double> explore_ms;
  for (int rep = 0; rep < kExploreReps; ++rep) {
    const auto t_explore = std::chrono::steady_clock::now();
    result = dse::explore(axes, workload, options);
    explore_ms.push_back(elapsed_ms(t_explore));
  }
  std::sort(explore_ms.begin(), explore_ms.end());
  const double explore_p50_ms = explore_ms[kExploreReps / 2];
  const double explore_cps =
      1e3 * static_cast<double>(result.points.size()) / explore_p50_ms;

  util::TablePrinter table({"Config", "Latency (ms)", "Area (mm^2)",
                            "Power (W)", "Bound cycles"});
  for (const dse::ParetoEntry& entry : result.front.entries()) {
    const dse::DesignPoint& point = result.points[entry.id];
    table.add_row({point.label(), util::fixed(entry.obj.latency_ms, 3),
                   util::fixed(entry.obj.area_mm2, 2),
                   util::fixed(entry.obj.power_w, 2),
                   std::to_string(result.bound_cycles[entry.id])});
  }
  table.print(std::cout);
  std::printf(
      "\nfrontier: %zu of %zu configurations survive; %llu dominated "
      "points pruned\n",
      result.front.entries().size(), result.points.size(),
      static_cast<unsigned long long>(result.front.pruned()));

  // Wall-clock lines: excluded from determinism diffs (filter_bench_output).
  std::printf("# plan path:  %7.1f ms for %zu configs (%.1f configs/s)\n",
              plan_ms, subset.size(), plan_cps);
  std::printf("# fast path:  %7.1f ms for %zu configs (%.1f configs/s)\n",
              fast_ms, subset.size(), fast_cps);
  std::printf("# speedup: %.1fx (gate >= 10x)\n", speedup);
  std::printf("# explore(): %7.1f ms for the full %zu-point grid "
              "(%.1f configs/s, median of %d calls)\n",
              explore_p50_ms, result.points.size(), explore_cps,
              kExploreReps);

  if (flags.get_bool("csv")) {
    dse::write_explore_csv(result, "bench_dse.csv");
    std::printf("wrote bench_dse.csv\n");
  }
  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    write_json(json_path, result, subset.size(), plan_cps, fast_cps,
               explore_cps);
    // "# " prefix: the json path is the caller's choice, so this line is
    // excluded from stdout diffs with the wall-clock lines.
    std::printf("# wrote %s\n", json_path.c_str());
  }
  return 0;
}
