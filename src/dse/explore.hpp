// Configurable-array design-space explorer.
//
// Sweeps the full ArrayConfig axis set — array shape at a fixed PE
// budget, weight-broadcast links, inter-PE pipelining (transparency),
// datapath width, SRAM capacity — over a fixed network workload, scoring
// each candidate with the plan-free closed-form evaluator
// (sched/eval_fast.hpp) and pruning dominated points incrementally into a
// Pareto frontier over {latency, area, power}.
//
// The evaluator is what makes the sweep cheap: hundreds of configurations
// x a 15-model workload never materialize a MappingPlan (bench_dse gates
// the >= 10x configs-per-second win over the plan-folded path). Area and
// power come from hw/area_power.cpp; latency converts roofline bound
// cycles at the configuration's post-derate clock
// (ArrayConfig::effective_freq_mhz).
//
// The sweep is one serial loop. A thread pool over the points cut wall
// time but cost more CPU than it saved, and a memo table in front of the
// closed form measured ~10x slower than none (the first entry of
// results/history/BENCH_sweep.jsonl). What the loop shares is each
// model's layer costs across the SRAM axis: a LayerCost never reads the
// SRAM size, and SRAM is the innermost axis, so between points that
// differ only there it reruns just the schedule and the roofline.
// Frontier offers happen in point-index order, so the frontier — and the
// CSV write_explore_csv emits — is a pure function of the axes and
// workload.
//
// docs/design_space.md documents the axes and the output formats.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dse/pareto.hpp"
#include "nets/zoo.hpp"
#include "sched/eval_fast.hpp"

namespace fuse::dse {

/// One swept candidate: the array plus the memory system paired to it
/// (dtype matches the datapath; SRAM capacity is itself an axis).
struct DesignPoint {
  systolic::ArrayConfig cfg;
  systolic::MemoryConfig mem;

  /// "32x128 bcast fp16 pipelined sram8MiB" — stable across runs; the CSV
  /// key column.
  std::string label() const;
};

/// The swept axes. Defaults give the standard 180-point grid:
/// 5 shapes x 2 broadcast x 3 pipelining x 3 datapath x 2 SRAM.
struct DseAxes {
  /// Array shapes (rows, cols), all at the paper's 64x64 = 4096-PE budget
  /// by default so area differences come from aspect-dependent edge and
  /// broadcast hardware, not PE count.
  std::vector<std::pair<std::int64_t, std::int64_t>> shapes = {
      {16, 256}, {32, 128}, {64, 64}, {128, 32}, {256, 16}};
  std::vector<bool> broadcast = {false, true};
  std::vector<systolic::Pipelining> pipelinings = {
      systolic::Pipelining::kPipelined, systolic::Pipelining::kTransparent2,
      systolic::Pipelining::kTransparent4};
  std::vector<systolic::Datapath> datapaths = {systolic::Datapath::kInt8,
                                               systolic::Datapath::kFp16,
                                               systolic::Datapath::kFp32};
  std::vector<std::int64_t> sram_bytes = {4 * 1024 * 1024, 8 * 1024 * 1024};
  double dram_bytes_per_cycle = 16.0;
};

/// The axis cross product, in a fixed nested order (shape-major), so point
/// indices are stable.
std::vector<DesignPoint> enumerate_design_points(const DseAxes& axes);

/// The standard workload: the five paper networks x {baseline, FuSe-Full,
/// FuSe-Half} (uniform modes — deliberately NOT the 50% variants, whose
/// slot selection depends on the ArrayConfig being evaluated; the model
/// set must be constant across the sweep).
std::vector<nets::NetworkModel> default_dse_workload();

/// Scores one candidate over a workload: latency is the sum of the
/// workload's roofline bound cycles divided by the effective clock;
/// area/power from the component hw model. `bound_cycles_out` (optional)
/// receives the summed bound cycles.
Objectives evaluate_design_point(const DesignPoint& point,
                                 const std::vector<nets::NetworkModel>& workload,
                                 sched::SchedMode mode,
                                 std::uint64_t* bound_cycles_out = nullptr);

struct ExploreOptions {
  sched::SchedMode mode = sched::SchedMode::kFused;
};

struct ExploreResult {
  std::vector<DesignPoint> points;
  std::vector<Objectives> objectives;      // parallel to points
  std::vector<std::uint64_t> bound_cycles;  // parallel to points
  ParetoFront front;
};

/// The sweep: evaluates every point in index order, equal to
/// evaluate_design_point at each, and offers it to the frontier. Records
/// the dse.configs_evaluated / dse.points_pruned counters.
ExploreResult explore(const DseAxes& axes,
                      const std::vector<nets::NetworkModel>& workload,
                      const ExploreOptions& options = {});

/// Writes the full point table as CSV: one row per point (stable index
/// order) with objectives and a `frontier` 0/1 column.
void write_explore_csv(const ExploreResult& result, const std::string& path);

}  // namespace fuse::dse
