// Plan-free closed-form latency/traffic evaluator.
//
// layer_latency / plan_network cost a layer by materializing its
// MappingPlan (a heap-allocated op list) and walking every fold tile.
// That walk visits ceil(a/R) * ceil(b/C) tiles — fine for one network,
// far too slow for a design-space sweep over hundreds of ArrayConfigs.
//
// This module computes the SAME numbers in closed form. A row-major fold
// grid has at most 2 distinct tile sizes per axis (the full tile and the
// edge remainder), so any per-tile cost sums as a 2x2 class
// decomposition: (na-1)(nb-1) interior tiles, nb-1 / na-1 edge strips,
// and 1 corner. Per-fold skew/compute/drain terms, preloads, traffic
// bytes, and peak fold footprints all collapse this way, and the op
// shapes themselves are mirrored from systolic::lower() without building
// the plan.
//
// Equality contract (the repo's oracle-vs-fast idiom, like kernels PR 4
// and the simulator PR 5): for every layer and every ArrayConfig,
//
//   eval_layer_fast(l, cfg, mem).latency == plan_latency(lower(l, cfg))
//   eval_layer_fast(l, cfg, mem).traffic == plan_traffic(lower(l, cfg))
//   eval_layer_fast(l, cfg, mem).peak_fold_bytes
//                                == plan_peak_fold_bytes(lower(l, cfg))
//
// the same three with eval_layer_fast(l, cfg, mem, b) against
// lower(l, cfg, b) for every batch b >= 1, and eval_network_fast's
// schedule/roofline equal plan_network / plan_roofline — structurally,
// because both paths feed the identical LayerCosts through the shared
// schedule_costs / roofline_over (netplan.hpp). tests/test_eval_fast.cpp
// checks the zoo grids (networks x variants x dataflows x broadcast x
// sched modes, and batches), tests/test_differential.cpp seeded random
// shapes and arrays, and
// bench_dse gates the >= 10x configs-per-second win this buys. It is the
// production cost path: every caller that only reads a cost runs on it,
// with no memo table in front (one closed-form evaluation is cheaper than
// a locked hash lookup); src/ lowers a plan only to execute or schedule
// it, or as the oracle.
//
// Telemetry: the evaluator intentionally skips the per-layer mapping.* /
// sched.* counters of the plan path (not materializing the plan is the
// point).
#pragma once

#include <cstdint>

#include "sched/netplan.hpp"

namespace fuse::sched {

/// Closed-form LayerCost of `batch` images of one layer at once: latency,
/// DRAM traffic, and peak per-fold SRAM footprint, equal to the fold of
/// systolic::lower(layer, cfg, batch) (see the equality contract above).
/// The batch stacks along the output positions (along the lines for FuSe
/// layers, the rows for FC). Pure function of (layer geometry, cfg, mem,
/// batch).
LayerCost eval_layer_fast(const nn::LayerDesc& layer,
                          const systolic::ArrayConfig& cfg,
                          const systolic::MemoryConfig& mem,
                          std::int64_t batch = 1);

/// Whole-network closed-form evaluation: per-layer costs plus the shared
/// schedule (SRAM liveness + fusion legality) and roofline.
struct NetworkEval {
  std::vector<LayerCost> layers;  // parallel to model.layers
  /// Sum of per-layer analytic latencies — equals NetworkPlan::total_cycles.
  std::uint64_t total_cycles = 0;
  CostSchedule schedule;
  NetworkRoofline roofline;
};

/// Evaluates the network without materializing any MappingPlan. The
/// roofline equals plan_roofline(plan_network(model, cfg, mem, mode))
/// field for field.
NetworkEval eval_network_fast(const nets::NetworkModel& model,
                              const systolic::ArrayConfig& cfg,
                              const systolic::MemoryConfig& mem,
                              SchedMode mode);

}  // namespace fuse::sched
