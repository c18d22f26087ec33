#include "sched/eval_fast.hpp"

#include <algorithm>

#include "systolic/memory.hpp"
#include "util/check.hpp"

namespace fuse::sched {

using nn::LayerDesc;
using nn::OpKind;
using systolic::ArrayConfig;
using systolic::LatencyEstimate;
using systolic::MemoryConfig;
using systolic::TrafficEstimate;

namespace {

/// The row-major fold grid of an [a, b] operand over an R x C array,
/// described by its 2x2 tile-size classes: na x nb tiles total, where
/// every tile is (R, C) except the last row/column of the grid, which is
/// (last_a, C) / (R, last_b) / (last_a, last_b) at the corner. Any
/// per-tile cost f(rows, cols) sums in closed form as
///   (na-1)(nb-1) f(R,C) + (na-1) f(R,last_b)
/// + (nb-1) f(last_a,C) + f(last_a,last_b)
/// which is what turns the O(na*nb) fold walks into O(1).
struct FoldGrid {
  std::int64_t na = 0;
  std::int64_t nb = 0;
  std::int64_t last_a = 0;
  std::int64_t last_b = 0;

  std::uint64_t folds() const {
    return static_cast<std::uint64_t>(na) * static_cast<std::uint64_t>(nb);
  }
};

FoldGrid fold_grid(std::int64_t a, std::int64_t b, std::int64_t rows,
                   std::int64_t cols) {
  FoldGrid grid;
  grid.na = (a + rows - 1) / rows;
  grid.nb = (b + cols - 1) / cols;
  grid.last_a = a - (grid.na - 1) * rows;
  grid.last_b = b - (grid.nb - 1) * cols;
  return grid;
}

/// Sum over the grid's a-axis tile sizes of cfg.skew_cycles(size):
/// (na-1) full tiles of `rows` plus the edge remainder.
std::uint64_t sum_skew_a(const FoldGrid& g, std::int64_t rows,
                         const ArrayConfig& cfg) {
  return static_cast<std::uint64_t>(g.na - 1) *
             static_cast<std::uint64_t>(cfg.skew_cycles(rows)) +
         static_cast<std::uint64_t>(cfg.skew_cycles(g.last_a));
}

std::uint64_t sum_skew_b(const FoldGrid& g, std::int64_t cols,
                         const ArrayConfig& cfg) {
  return static_cast<std::uint64_t>(g.nb - 1) *
             static_cast<std::uint64_t>(cfg.skew_cycles(cols)) +
         static_cast<std::uint64_t>(cfg.skew_cycles(g.last_b));
}

/// Sum over the a-axis tile sizes of cfg.drain_cycles(size).
std::uint64_t sum_drain_a(const FoldGrid& g, std::int64_t rows,
                          const ArrayConfig& cfg) {
  return static_cast<std::uint64_t>(g.na - 1) *
             static_cast<std::uint64_t>(cfg.drain_cycles(rows)) +
         static_cast<std::uint64_t>(cfg.drain_cycles(g.last_a));
}

/// Closed form of matmul_latency_os: folds pay skew(r)+skew(c)+t each; the
/// drain overlaps the next fold's fill (only the row-major-last tile —
/// which has last_a rows — pays it) or every fold pays its own.
LatencyEstimate matmul_closed_os(std::int64_t m, std::int64_t t,
                                 std::int64_t n, const ArrayConfig& cfg) {
  const FoldGrid g = fold_grid(m, n, cfg.rows, cfg.cols);
  LatencyEstimate est;
  est.pe_count = cfg.pe_count();
  est.folds = g.folds();
  est.cycles = static_cast<std::uint64_t>(g.nb) * sum_skew_a(g, cfg.rows, cfg) +
               static_cast<std::uint64_t>(g.na) * sum_skew_b(g, cfg.cols, cfg) +
               est.folds * static_cast<std::uint64_t>(t);
  if (cfg.overlap_fold_drain) {
    est.cycles += static_cast<std::uint64_t>(cfg.drain_cycles(g.last_a));
  } else {
    est.cycles += static_cast<std::uint64_t>(g.nb) * sum_drain_a(g, cfg.rows, cfg);
  }
  est.mac_ops = static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(t) *
                static_cast<std::uint64_t>(n);
  return est;
}

/// Closed form of matmul_latency_ws: the [t, n] weight grid streams m
/// activation rows per fold; the preload is the first fold's used depth
/// under overlap (later preloads hide behind streaming) or every fold's
/// used depth — which telescopes to nb * t.
LatencyEstimate matmul_closed_ws(std::int64_t m, std::int64_t t,
                                 std::int64_t n, const ArrayConfig& cfg) {
  const FoldGrid g = fold_grid(t, n, cfg.rows, cfg.cols);
  LatencyEstimate est;
  est.pe_count = cfg.pe_count();
  est.folds = g.folds();
  est.cycles = est.folds * static_cast<std::uint64_t>(m) +
               static_cast<std::uint64_t>(g.nb) * sum_skew_a(g, cfg.rows, cfg) +
               static_cast<std::uint64_t>(g.na) * sum_skew_b(g, cfg.cols, cfg);
  est.cycles += cfg.overlap_fold_drain
                    ? static_cast<std::uint64_t>(std::min(t, cfg.rows))
                    : static_cast<std::uint64_t>(g.nb) *
                          static_cast<std::uint64_t>(t);
  est.mac_ops = static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(t) *
                static_cast<std::uint64_t>(n);
  return est;
}

/// Closed form of matmul_latency_is (symmetric to WS with the [m, t]
/// activation grid pinned and n weight columns streaming).
LatencyEstimate matmul_closed_is(std::int64_t m, std::int64_t t,
                                 std::int64_t n, const ArrayConfig& cfg) {
  const FoldGrid g = fold_grid(m, t, cfg.rows, cfg.cols);
  LatencyEstimate est;
  est.pe_count = cfg.pe_count();
  est.folds = g.folds();
  est.cycles = est.folds * static_cast<std::uint64_t>(n) +
               static_cast<std::uint64_t>(g.nb) * sum_skew_a(g, cfg.rows, cfg) +
               static_cast<std::uint64_t>(g.na) * sum_skew_b(g, cfg.cols, cfg);
  est.cycles += cfg.overlap_fold_drain
                    ? static_cast<std::uint64_t>(std::min(m, cfg.rows))
                    : static_cast<std::uint64_t>(g.nb) *
                          static_cast<std::uint64_t>(m);
  est.mac_ops = static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(t) *
                static_cast<std::uint64_t>(n);
  return est;
}

LatencyEstimate matmul_closed(std::int64_t m, std::int64_t t, std::int64_t n,
                              const ArrayConfig& cfg) {
  FUSE_CHECK(m > 0 && t > 0 && n > 0)
      << "matmul_closed(" << m << ", " << t << ", " << n << ")";
  switch (cfg.dataflow) {
    case systolic::Dataflow::kOutputStationary:
      return matmul_closed_os(m, t, n, cfg);
    case systolic::Dataflow::kWeightStationary:
      return matmul_closed_ws(m, t, n, cfg);
    case systolic::Dataflow::kInputStationary:
      return matmul_closed_is(m, t, n, cfg);
  }
  FUSE_CHECK(false) << "unknown dataflow";
  return {};
}

/// Closed form of fuse1d_latency: every fold pays skew(cols)+k; the drain
/// follows the OS overlap rule.
LatencyEstimate fuse1d_closed(std::int64_t lines, std::int64_t line_out,
                              std::int64_t k, const ArrayConfig& cfg) {
  FUSE_CHECK(lines > 0 && line_out > 0 && k > 0)
      << "fuse1d_closed(" << lines << ", " << line_out << ", " << k << ")";
  const FoldGrid g = fold_grid(lines, line_out, cfg.rows, cfg.cols);
  LatencyEstimate est;
  est.pe_count = cfg.pe_count();
  est.folds = g.folds();
  est.cycles = static_cast<std::uint64_t>(g.na) * sum_skew_b(g, cfg.cols, cfg) +
               est.folds * static_cast<std::uint64_t>(k);
  if (cfg.overlap_fold_drain) {
    est.cycles += static_cast<std::uint64_t>(cfg.drain_cycles(g.last_a));
  } else {
    est.cycles += static_cast<std::uint64_t>(g.nb) * sum_drain_a(g, cfg.rows, cfg);
  }
  est.mac_ops = static_cast<std::uint64_t>(lines) *
                static_cast<std::uint64_t>(line_out) *
                static_cast<std::uint64_t>(k);
  return est;
}

/// unit * repeats, exactly PrimitiveOp::total().
LatencyEstimate scale_unit(const LatencyEstimate& unit, std::int64_t repeats) {
  const std::uint64_t r = static_cast<std::uint64_t>(repeats);
  LatencyEstimate est;
  est.pe_count = unit.pe_count;
  est.cycles = unit.cycles * r;
  est.folds = unit.folds * r;
  est.mac_ops = unit.mac_ops * r;
  return est;
}

/// Peak per-fold operand footprint of a matmul-shaped op — the first
/// (full-sized) tile, clamped to the operand dims; mirrors
/// plan_peak_fold_bytes.
std::uint64_t matmul_peak_bytes(std::int64_t m, std::int64_t t,
                                std::int64_t n, const ArrayConfig& cfg,
                                const MemoryConfig& mem) {
  const std::int64_t rows = std::min(m, cfg.rows);
  const std::int64_t cols = std::min(n, cfg.cols);
  return static_cast<std::uint64_t>(rows * t + t * cols + rows * cols) *
         static_cast<std::uint64_t>(mem.dtype_bytes);
}

std::uint64_t fuse1d_peak_bytes(std::int64_t lines, std::int64_t line_out,
                                std::int64_t taps, const ArrayConfig& cfg,
                                const MemoryConfig& mem) {
  const std::int64_t rows = std::min(lines, cfg.rows);
  const std::int64_t cols = std::min(line_out, cfg.cols);
  return static_cast<std::uint64_t>(rows * (cols + taps - 1) + rows * taps +
                                    rows * cols) *
         static_cast<std::uint64_t>(mem.dtype_bytes);
}

/// Traffic of a matmul-shaped op repeated `repeats` times; channelwise
/// repeats stream fresh operands per tap but the adder tree keeps the
/// output on-chip, so it leaves once (mirrors plan_traffic).
TrafficEstimate repeat_matmul_traffic(std::int64_t m, std::int64_t t,
                                      std::int64_t n, std::int64_t repeats,
                                      bool output_once,
                                      const ArrayConfig& cfg,
                                      const MemoryConfig& mem) {
  const TrafficEstimate per = systolic::matmul_traffic(m, t, n, cfg, mem);
  const std::uint64_t r = static_cast<std::uint64_t>(repeats);
  TrafficEstimate traffic;
  traffic.input_bytes = per.input_bytes * r;
  traffic.weight_bytes = per.weight_bytes * r;
  traffic.output_bytes = output_once ? per.output_bytes : per.output_bytes * r;
  return traffic;
}

/// Cost of a matmul-shaped layer (the im2col/channelwise/matmul kinds).
LayerCost matmul_shaped_cost(std::int64_t m, std::int64_t t, std::int64_t n,
                             std::int64_t repeats, bool output_once,
                             const ArrayConfig& cfg,
                             const MemoryConfig& mem) {
  LayerCost cost;
  cost.latency = scale_unit(matmul_closed(m, t, n, cfg), repeats);
  cost.traffic = repeat_matmul_traffic(m, t, n, repeats, output_once, cfg, mem);
  cost.peak_fold_bytes = matmul_peak_bytes(m, t, n, cfg, mem);
  cost.on_array = true;
  return cost;
}

/// Cost of a FuSe 1-D stage (row or col branch).
LayerCost fuse_line_cost(std::int64_t lines, std::int64_t line_out,
                         std::int64_t line_keep, std::int64_t taps,
                         const ArrayConfig& cfg, const MemoryConfig& mem) {
  LayerCost cost;
  if (cfg.broadcast_links) {
    cost.latency = fuse1d_closed(lines, line_out, taps, cfg);
    cost.peak_fold_bytes = fuse1d_peak_bytes(lines, line_out, taps, cfg, mem);
  } else {
    // Broadcast-less fallback: each line is a serialized single-column
    // matmul (repeats = lines).
    cost.latency =
        scale_unit(matmul_closed(line_out, taps, /*n=*/1, cfg), lines);
    cost.peak_fold_bytes = matmul_peak_bytes(line_out, taps, /*n=*/1, cfg, mem);
  }
  // Window reads fold over the KEPT outputs; same traffic with or without
  // broadcast links (the ablation varies compute only).
  cost.traffic = systolic::fuse1d_traffic(lines, line_keep, taps, cfg, mem);
  cost.on_array = true;
  return cost;
}

/// The closed form of systolic::lower_impl: `m_scale` multiplies the
/// output-position dimension (the batch), and `allow_channelwise` is false
/// on the batched path, which always maps standard convs to im2col.
LayerCost eval_layer(const LayerDesc& layer, const ArrayConfig& cfg,
                     const MemoryConfig& mem, std::int64_t m_scale,
                     bool allow_channelwise) {
  cfg.validate();
  mem.validate();
  const std::int64_t positions = m_scale * layer.out_h * layer.out_w;
  switch (layer.kind) {
    case OpKind::kStandardConv:
      if (allow_channelwise &&
          cfg.standard_conv_mapping ==
              systolic::StandardConvMapping::kChannelwise) {
        return matmul_shaped_cost(positions, layer.in_c, layer.out_c,
                                  /*repeats=*/layer.kernel_h * layer.kernel_w,
                                  /*output_once=*/true, cfg, mem);
      }
      return matmul_shaped_cost(positions,
                                layer.kernel_h * layer.kernel_w * layer.in_c,
                                layer.out_c, /*repeats=*/1,
                                /*output_once=*/false, cfg, mem);
    case OpKind::kGroupedConv:
      systolic::check_grouped_conv(layer);
      return matmul_shaped_cost(
          positions,
          layer.kernel_h * layer.kernel_w * (layer.in_c / layer.groups),
          layer.out_c / layer.groups, /*repeats=*/layer.groups,
          /*output_once=*/false, cfg, mem);
    case OpKind::kDepthwiseConv:
      // One single-column matmul per channel — the §III-B pathology.
      return matmul_shaped_cost(positions, layer.kernel_h * layer.kernel_w,
                                /*n=*/1, /*repeats=*/layer.out_c,
                                /*output_once=*/false, cfg, mem);
    case OpKind::kPointwiseConv:
      return matmul_shaped_cost(positions, layer.in_c, layer.out_c,
                                /*repeats=*/1, /*output_once=*/false, cfg,
                                mem);
    case OpKind::kFuseRowConv:
      return fuse_line_cost(
          m_scale * layer.out_c * layer.out_h,
          systolic::fuse_dense_width(layer.out_w, layer.in_w, layer.pad_w,
                                     layer.kernel_w, layer.stride_w, cfg),
          layer.out_w, layer.kernel_w, cfg, mem);
    case OpKind::kFuseColConv:
      return fuse_line_cost(
          m_scale * layer.out_c * layer.out_w,
          systolic::fuse_dense_width(layer.out_h, layer.in_h, layer.pad_h,
                                     layer.kernel_h, layer.stride_h, cfg),
          layer.out_h, layer.kernel_h, cfg, mem);
    case OpKind::kFullyConnected:
      // m_scale is the batch here: it fills otherwise-idle array rows.
      return matmul_shaped_cost(/*m=*/m_scale, layer.in_c, layer.out_c,
                                /*repeats=*/1, /*output_once=*/false, cfg,
                                mem);
    case OpKind::kAvgPool:
    case OpKind::kMaxPool:
    case OpKind::kGlobalAvgPool:
    case OpKind::kActivation:
    case OpKind::kElementwiseAdd:
      break;  // zero array cycles, no traffic
  }
  LayerCost glue;
  glue.latency.pe_count = cfg.pe_count();  // matches the empty plan's total
  glue.on_array = false;
  return glue;
}

}  // namespace

LayerCost eval_layer_fast(const LayerDesc& layer, const ArrayConfig& cfg,
                          const MemoryConfig& mem) {
  return eval_layer(layer, cfg, mem, /*m_scale=*/1,
                    /*allow_channelwise=*/true);
}

LayerCost eval_layer_batched(const LayerDesc& layer, const ArrayConfig& cfg,
                             const MemoryConfig& mem, std::int64_t batch) {
  FUSE_CHECK(batch >= 1) << "batch must be >= 1";
  return eval_layer(layer, cfg, mem, /*m_scale=*/batch,
                    /*allow_channelwise=*/false);
}

NetworkEval eval_network_fast(const nets::NetworkModel& model,
                              const ArrayConfig& cfg,
                              const MemoryConfig& mem, SchedMode mode) {
  cfg.validate();
  mem.validate();
  NetworkEval ev;
  ev.layers.reserve(model.layers.size());
  for (const LayerDesc& layer : model.layers) {
    LayerCost cost = eval_layer_fast(layer, cfg, mem);
    ev.total_cycles += cost.latency.cycles;
    ev.layers.push_back(std::move(cost));
  }
  ev.schedule = schedule_costs(model, ev.layers, mem, mode);
  ev.roofline = roofline_over(ev.layers, ev.schedule.fused_pairs, mem);
  return ev;
}

}  // namespace fuse::sched
