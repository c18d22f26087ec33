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
// plan_trace) all consume the same plan; the ones that need per-fold
// cycles read them from one priced walk, for_each_fold below. The
// closed-form evaluator (sched/eval_fast.hpp), which every cost-only
// caller uses, mirrors lower() without building the plan and is tested
// equal to its fold.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "systolic/config.hpp"
#include "systolic/cycle_model.hpp"
#include "systolic/memory.hpp"

namespace fuse::systolic {

/// The three ways a layer's work lands on the array.
enum class PrimitiveKind {
  /// Dense [m, k] x [k, n] matmul on the configured dataflow.
  kMatmulTile,
  /// Matmul whose A operand is a lowered im2col patch matrix; taps_h/taps_w
  /// record the kernel window (rectangular kernels supported). Standard
  /// and grouped convs map this way (the paper's Fig. 3(a)); depthwise
  /// convolution is the degenerate n = 1 case repeated per channel.
  kIm2colTile,
  /// FuSe 1-D convolution lines. With `broadcast` each array row convolves
  /// one line under the per-row weight bus (paper Fig. 7); without it each
  /// line degrades to a serialized [line_out, taps] x [taps, 1] matmul.
  kFuse1DLine,
};

std::string primitive_kind_name(PrimitiveKind kind);

/// One primitive array op. `repeats` counts back-to-back executions of the
/// identical primitive (depthwise channels, conv groups, broadcast-less
/// lines); `unit` is the cost of ONE repeat, computed from the cycle-model
/// formulas at lower() time.
struct PrimitiveOp {
  PrimitiveKind kind = PrimitiveKind::kMatmulTile;

  // Matmul-shaped dims (kMatmulTile / kIm2colTile).
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;
  // Kernel window behind an im2col depth (k == taps_h * taps_w * channels).
  std::int64_t taps_h = 1;
  std::int64_t taps_w = 1;

  // 1-D line dims (kFuse1DLine). `line_out` is the width actually computed
  // (the dense width on a strided line, see fuse_dense_width); `line_keep`
  // the outputs retained after stride discard.
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

/// Lowers `batch` images of one layer onto the array (batch 1 is the
/// paper's setting). The batch stacks along the output-position dimension
/// for the conv family (along the lines for FuSe layers) and fills
/// otherwise-idle array rows (m = batch) for FC layers — which is why
/// datacenter accelerators batch, and why batch-1 edge inference is where
/// the depthwise pathology (and FuSeConv's fix) matters most. Checks
/// geometry: batch >= 1, and grouped convolutions must have channel counts
/// divisible by `groups`.
MappingPlan lower(const nn::LayerDesc& layer, const ArrayConfig& cfg,
                  std::int64_t batch = 1);

// Two mapping decisions shared with the closed-form evaluator; the cost
// arithmetic stays separate, so the plan fold remains its oracle.

/// Width a FuSe line computes along its convolved axis. The
/// shift-register input flow only aligns neighbouring PEs' windows at
/// stride 1 (PE c needs x[c*s + k]; its right neighbour's previous value
/// is x[c*s + s + k - 1], equal only when s = 1), so a strided line
/// computes the dense output and keeps every stride-th of it: `keep`
/// outputs survive. Whole lines along the other axis are still skipped.
std::int64_t fuse_dense_width(std::int64_t keep, std::int64_t in,
                              std::int64_t pad, std::int64_t taps,
                              std::int64_t stride);

/// FUSE_CHECKs that a grouped convolution's channel counts are divisible
/// by its `groups`, naming the layer.
void check_grouped_conv(const nn::LayerDesc& layer);

/// DRAM traffic of a lowered plan (the roofline extension's input).
/// Matmul-shaped primitives re-stream operands once per fold
/// (memory.hpp's rule) and scale with `repeats`; kFuse1DLine reads each
/// line's window per column-fold over the *kept* outputs.
TrafficEstimate plan_traffic(const MappingPlan& plan, const ArrayConfig& cfg,
                             const MemoryConfig& mem);

/// The priced fold walk of one primitive: every fold of every repeat, in
/// execution order, as fn(tile, cycles, macs). Matmul-shaped kinds walk
/// for_each_matmul_fold; broadcast lines walk for_each_fuse1d_fold, and
/// broadcast-less lines degrade to a [line_out, taps] x [taps, 1] matmul
/// per repeat. Each repeat is its own array pass, so under
/// overlap_fold_drain each pays its own drain (OS, FuSe) or preload
/// (WS/IS); the folds sum exactly to op.total(). The cycle model is the
/// only place a fold is priced: the scheduler's fused interleaver and the
/// fold tracer read cycles from this walk.
template <typename Fn>
void for_each_fold(const PrimitiveOp& op, const ArrayConfig& cfg, Fn&& fn) {
  for (std::int64_t r = 0; r < op.repeats; ++r) {
    if (op.kind != PrimitiveKind::kFuse1DLine) {
      for_each_matmul_fold(op.m, op.k, op.n, cfg, fn);
    } else if (op.broadcast) {
      for_each_fuse1d_fold(op.lines, op.line_out, op.taps, cfg, fn);
    } else {
      for_each_matmul_fold(op.line_out, op.taps, /*n=*/1, cfg, fn);
    }
  }
}

/// MAC-streaming cycles shared by every fold of `op`: the dataflow's
/// matmul_stream_cycles window, or the taps of a broadcast line. So
/// op.total().folds times this is the op's compute time, and the rest of
/// op.total().cycles is skew, preload and drain.
std::int64_t fold_stream_cycles(const PrimitiveOp& op, const ArrayConfig& cfg);

}  // namespace fuse::systolic
