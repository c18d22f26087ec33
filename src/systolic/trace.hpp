// Fold-level execution trace (SCALE-Sim's signature output, at tile
// granularity): one record per array pass with its geometry, cycle
// interval, and per-operand SRAM footprint. Also derives the double-buffer
// SRAM capacity needed to keep the array compute-bound (the next fold's
// operands must be staged while the current fold runs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "systolic/config.hpp"
#include "systolic/mapping.hpp"
#include "systolic/memory.hpp"
#include "util/trace_sink.hpp"

namespace fuse::systolic {

/// One array pass.
struct FoldRecord {
  std::uint64_t start_cycle = 0;
  std::uint64_t end_cycle = 0;  // exclusive
  std::int64_t used_rows = 0;
  std::int64_t used_cols = 0;
  std::int64_t depth = 0;  // MACs per PE in this fold

  /// SRAM bytes the fold's operands occupy while it runs.
  std::uint64_t input_bytes = 0;
  std::uint64_t weight_bytes = 0;
  std::uint64_t output_bytes = 0;
};

/// Trace of one operator.
struct FoldTrace {
  std::vector<FoldRecord> folds;
  std::uint64_t total_cycles = 0;

  /// Peak per-fold SRAM footprint; with double buffering the required
  /// capacity is twice this (current + staged fold).
  std::uint64_t peak_fold_bytes() const;
  std::uint64_t double_buffer_bytes() const { return 2 * peak_fold_bytes(); }
};

/// Trace of a whole lowered layer: the priced walk for_each_fold laid on
/// one cycle axis, every primitive op expanded over its repeats (each
/// repeat is a full array pass — e.g. one per depthwise channel). A
/// fold's span includes its pass's exposed drain, so the folds tile
/// [0, total_cycles) and total_cycles equals plan.total_latency().cycles.
/// Matmul-shaped folds take the output-stationary tile's operand
/// footprint, so a plan holding one FUSE_CHECKs that cfg is
/// output-stationary; broadcast lines trace on any dataflow.
FoldTrace plan_trace(const MappingPlan& plan, const ArrayConfig& cfg,
                     const MemoryConfig& mem);

/// Peak per-fold SRAM footprint of a lowered plan, computed directly from
/// the fold-tile geometry (no FoldTrace materialization — the network
/// scheduler calls this per layer to size double-buffer staging).
/// The same footprint rule on every dataflow; on output-stationary arrays
/// it equals plan_trace(plan, cfg, mem).peak_fold_bytes(). Zero for empty
/// (glue) plans.
std::uint64_t plan_peak_fold_bytes(const MappingPlan& plan,
                                   const ArrayConfig& cfg,
                                   const MemoryConfig& mem);

/// Writes one CSV row per fold.
void write_fold_trace_csv(const FoldTrace& trace, const std::string& path);

// --- Perfetto / chrome://tracing export --------------------------------------
// The fold timeline rendered as Chrome trace_event JSON with CYCLES as the
// timestamp unit (one viewer "us" == one array cycle): an "X" span per
// fold and, per operand, a "C" counter series tracking the SRAM bytes the
// running fold occupies. Whole networks concatenate layer traces on one
// cycle axis via `cycle_offset` (examples/profile_network.cpp).

/// Track ids used by the exporters: spans land on kFoldTrack, SRAM counter
/// series on kSramTrack (counters get their own track so stacked area
/// charts do not overlay the spans).
inline constexpr int kLayerTrack = 0;
inline constexpr int kFoldTrack = 1;
inline constexpr int kSramTrack = 2;

/// Appends `trace`'s folds to `sink`, shifted by `cycle_offset`: one
/// complete span named `name` per fold (args: rows/cols/depth), plus SRAM
/// counter samples at every fold boundary when `sram_counters`. Returns
/// the cycle cursor after the trace (offset + total_cycles).
std::uint64_t append_fold_trace_events(util::TraceSink& sink,
                                       const FoldTrace& trace,
                                       const std::string& name,
                                       std::uint64_t cycle_offset,
                                       bool sram_counters = true);

}  // namespace fuse::systolic
