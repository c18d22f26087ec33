// The array-mapping IR: every layer is lowered to an ordered list of
// primitive array operations before anything computes cycles, simulates,
// executes, or traces it.
//
//   LayerDesc --lower()--> MappingPlan --fold/simulate/execute/trace
//
// The paper's central claim — FuSeConv fills both dimensions of the array
// while depthwise convolution occupies one column (§III-B vs §IV-C) — is
// encoded exactly once, here, as the choice of primitive and its dims.
// The plan-fold oracle (sched::layer_latency), the network scheduler
// (sched/netplan.cpp), the PE-grid simulator (sim.hpp run_plan), the
// layer executor (sched/execute.cpp), and the fold tracer (trace.hpp
// plan_trace) all consume the same plan. The closed-form evaluator
// (sched/eval_fast.hpp), which every cost-only caller uses, mirrors
// lower() without building the plan and is tested equal to its fold.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "systolic/config.hpp"
#include "systolic/cycle_model.hpp"
#include "systolic/memory.hpp"

namespace fuse::systolic {

/// The four ways a layer's work lands on the array.
enum class PrimitiveKind {
  /// Dense [m, k] x [k, n] matmul on the configured dataflow.
  kMatmulTile,
  /// Matmul whose A operand is a lowered im2col patch matrix; taps_h/taps_w
  /// record the kernel window (rectangular kernels supported). Depthwise
  /// convolution is the degenerate n = 1 case repeated per channel.
  kIm2colTile,
  /// Channel-wise standard-conv mapping (paper Fig. 3(b)): one
  /// [m, k] x [k, n] matmul per kernel tap (`repeats` taps), partials
  /// reduced by the accelerator's adder tree so the output leaves once.
  kChannelwiseTile,
  /// FuSe 1-D convolution lines. With `broadcast` each array row convolves
  /// one line under the per-row weight bus (paper Fig. 7); without it each
  /// line degrades to a serialized [line_out, taps] x [taps, 1] matmul.
  kFuse1DLine,
};

std::string primitive_kind_name(PrimitiveKind kind);

/// One primitive array op. `repeats` counts back-to-back executions of the
/// identical primitive (depthwise channels, conv groups, channel-wise
/// taps, broadcast-less lines); `unit` is the cost of ONE repeat, computed
/// from the cycle-model formulas at lower() time.
struct PrimitiveOp {
  PrimitiveKind kind = PrimitiveKind::kMatmulTile;

  // Matmul-shaped dims (kMatmulTile / kIm2colTile / kChannelwiseTile).
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;
  // Kernel window behind an im2col depth (k == taps_h * taps_w * channels).
  std::int64_t taps_h = 1;
  std::int64_t taps_w = 1;

  // 1-D line dims (kFuse1DLine). `line_out` is the width actually computed
  // (the dense width under strided_fuse_dense_compute); `line_keep` the
  // outputs retained after stride discard.
  std::int64_t lines = 0;
  std::int64_t line_out = 0;
  std::int64_t line_keep = 0;
  std::int64_t taps = 0;
  bool broadcast = false;

  std::int64_t repeats = 1;
  LatencyEstimate unit;

  /// `unit` scaled by `repeats` (every repeat is an identical array pass,
  /// so cycles, folds, and MACs all scale linearly).
  LatencyEstimate total() const;
};

/// The lowered form of one layer: primitives run back-to-back on the
/// array. Glue ops (pool/activation/add) lower to an empty plan — they
/// cost zero array cycles in the paper's methodology.
struct MappingPlan {
  std::vector<PrimitiveOp> ops;
  std::int64_t pe_count = 0;

  /// Fold of the per-primitive costs; equals sched::layer_latency.
  LatencyEstimate total_latency() const;

  /// Human-readable one-line-per-op dump (pinned by golden snapshots in
  /// tests/test_mapping.cpp).
  std::string to_string() const;
};

/// Lowers one layer (batch 1) onto the array. Checks geometry: grouped
/// convolutions must have channel counts divisible by `groups`.
MappingPlan lower(const nn::LayerDesc& layer, const ArrayConfig& cfg);

/// Batched lowering: the batch stacks along the output-position dimension
/// for the conv family and fills otherwise-idle array rows (m = batch) for
/// FC layers — which is why datacenter accelerators batch, and why batch-1
/// edge inference is where the depthwise pathology (and FuSeConv's fix)
/// matters most. Standard convolutions always lower to im2col here — the
/// channel-wise mapping offers no batched variant in this model. The
/// oracle of sched::eval_layer_batched, which prices serving batches.
MappingPlan lower_batched(const nn::LayerDesc& layer, const ArrayConfig& cfg,
                          std::int64_t batch);

// Two mapping decisions shared with the closed-form evaluator; the cost
// arithmetic stays separate, so the plan fold remains its oracle.

/// Dense width the shift-register flow must compute along a strided line
/// (ArrayConfig::strided_fuse_dense_compute); `keep` outputs survive.
std::int64_t fuse_dense_width(std::int64_t keep, std::int64_t in,
                              std::int64_t pad, std::int64_t taps,
                              std::int64_t stride, const ArrayConfig& cfg);

/// FUSE_CHECKs that a grouped convolution's channel counts are divisible
/// by its `groups`, naming the layer.
void check_grouped_conv(const nn::LayerDesc& layer);

/// DRAM traffic of a lowered plan (the roofline extension's input).
/// Matmul-shaped primitives re-stream operands once per fold
/// (memory.hpp's rule) and scale with `repeats`; a kChannelwiseTile's
/// output leaves once across all taps (adder-tree reduction); kFuse1DLine
/// reads each line's window per column-fold over the *kept* outputs.
TrafficEstimate plan_traffic(const MappingPlan& plan, const ArrayConfig& cfg,
                             const MemoryConfig& mem);

/// One fold tile of a primitive: `a0`/`rows` index the array-row dim,
/// `b0`/`cols` the array-column dim.
struct FoldTile {
  std::int64_t a0 = 0;
  std::int64_t rows = 0;
  std::int64_t b0 = 0;
  std::int64_t cols = 0;
};

/// The canonical fold enumeration shared by the cycle model, the
/// simulator, and the tracer: row-major over ceil(a/rows) x ceil(b/cols)
/// tiles, edge tiles shortened. Every consumer walking folds walks THIS
/// order, which is what makes their cycle counts comparable fold by fold.
template <typename Fn>
void for_each_fold_tile(std::int64_t a, std::int64_t b,
                        const ArrayConfig& cfg, Fn&& fn) {
  for (std::int64_t a0 = 0; a0 < a; a0 += cfg.rows) {
    const std::int64_t rows = std::min(cfg.rows, a - a0);
    for (std::int64_t b0 = 0; b0 < b; b0 += cfg.cols) {
      fn(FoldTile{a0, rows, b0, std::min(cfg.cols, b - b0)});
    }
  }
}

}  // namespace fuse::systolic
