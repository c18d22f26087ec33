#include "systolic/mapping.hpp"

#include <sstream>

#include "util/check.hpp"
#include "util/telemetry.hpp"

namespace fuse::systolic {

using nn::LayerDesc;
using nn::OpKind;

std::string primitive_kind_name(PrimitiveKind kind) {
  switch (kind) {
    case PrimitiveKind::kMatmulTile:
      return "matmul";
    case PrimitiveKind::kIm2colTile:
      return "im2col";
    case PrimitiveKind::kChannelwiseTile:
      return "channelwise";
    case PrimitiveKind::kFuse1DLine:
      return "fuse1d";
  }
  return "?";
}

LatencyEstimate PrimitiveOp::total() const {
  FUSE_CHECK(repeats >= 1) << "primitive op with repeats=" << repeats;
  const std::uint64_t r = static_cast<std::uint64_t>(repeats);
  LatencyEstimate est;
  est.pe_count = unit.pe_count;
  est.cycles = unit.cycles * r;
  est.folds = unit.folds * r;
  est.mac_ops = unit.mac_ops * r;
  return est;
}

LatencyEstimate MappingPlan::total_latency() const {
  LatencyEstimate est;
  est.pe_count = pe_count;
  for (const PrimitiveOp& op : ops) {
    est += op.total();
  }
  return est;
}

std::string MappingPlan::to_string() const {
  std::ostringstream out;
  for (const PrimitiveOp& op : ops) {
    const LatencyEstimate tot = op.total();
    out << primitive_kind_name(op.kind);
    switch (op.kind) {
      case PrimitiveKind::kMatmulTile:
      case PrimitiveKind::kChannelwiseTile:
        out << " m=" << op.m << " k=" << op.k << " n=" << op.n;
        break;
      case PrimitiveKind::kIm2colTile:
        out << " m=" << op.m << " k=" << op.k << " n=" << op.n << " taps="
            << op.taps_h << "x" << op.taps_w;
        break;
      case PrimitiveKind::kFuse1DLine:
        out << " lines=" << op.lines << " out=" << op.line_out;
        if (op.line_keep != op.line_out) {
          out << " keep=" << op.line_keep;
        }
        out << " taps=" << op.taps
            << (op.broadcast ? " broadcast" : " no-broadcast");
        break;
    }
    if (op.repeats != 1) {
      out << " x" << op.repeats;
    }
    out << ": " << tot.cycles << " cycles, " << tot.folds << " folds, "
        << tot.mac_ops << " macs\n";
  }
  return out.str();
}

namespace {

PrimitiveOp matmul_shaped(PrimitiveKind kind, std::int64_t m, std::int64_t k,
                          std::int64_t n, std::int64_t repeats,
                          const ArrayConfig& cfg) {
  PrimitiveOp op;
  op.kind = kind;
  op.m = m;
  op.k = k;
  op.n = n;
  op.repeats = repeats;
  op.unit = matmul_latency(m, k, n, cfg);
  return op;
}

PrimitiveOp fuse_lines(std::int64_t lines, std::int64_t line_out,
                       std::int64_t line_keep, std::int64_t taps,
                       const ArrayConfig& cfg) {
  PrimitiveOp op;
  op.kind = PrimitiveKind::kFuse1DLine;
  op.lines = lines;
  op.line_out = line_out;
  op.line_keep = line_keep;
  op.taps = taps;
  op.broadcast = cfg.broadcast_links;
  if (cfg.broadcast_links) {
    op.unit = fuse1d_latency(lines, line_out, taps, cfg);
  } else {
    // Without the per-row bus each line degrades to a serialized
    // single-column matmul (the ablation that motivates the links).
    op.unit = matmul_latency(line_out, taps, /*n=*/1, cfg);
    op.repeats = lines;
  }
  return op;
}

/// Per-kind primitive-op counters ("mapping.ops.<kind>" — the lowered
/// instruction mix) plus plan and array-pass totals.
void record_plan_metrics(const MappingPlan& plan) {
  static util::Counter& plans = util::metrics().counter("mapping.plans");
  static util::Counter& matmul =
      util::metrics().counter("mapping.ops.matmul");
  static util::Counter& im2col =
      util::metrics().counter("mapping.ops.im2col");
  static util::Counter& channelwise =
      util::metrics().counter("mapping.ops.channelwise");
  static util::Counter& fuse1d =
      util::metrics().counter("mapping.ops.fuse1d");
  static util::Counter& passes =
      util::metrics().counter("mapping.array_passes");
  plans.add();
  for (const PrimitiveOp& op : plan.ops) {
    switch (op.kind) {
      case PrimitiveKind::kMatmulTile:
        matmul.add();
        break;
      case PrimitiveKind::kIm2colTile:
        im2col.add();
        break;
      case PrimitiveKind::kChannelwiseTile:
        channelwise.add();
        break;
      case PrimitiveKind::kFuse1DLine:
        fuse1d.add();
        break;
    }
    passes.add(static_cast<std::uint64_t>(op.repeats));
  }
}

/// Shared by lower() and lower_batched(): `m_scale` multiplies the
/// output-position dimension (1 for single-image inference).
MappingPlan lower_impl(const LayerDesc& layer, const ArrayConfig& cfg,
                       std::int64_t m_scale, bool allow_channelwise) {
  cfg.validate();
  MappingPlan plan;
  plan.pe_count = cfg.pe_count();
  const std::int64_t positions = m_scale * layer.out_h * layer.out_w;
  switch (layer.kind) {
    case OpKind::kStandardConv:
      if (allow_channelwise &&
          cfg.standard_conv_mapping == StandardConvMapping::kChannelwise) {
        // One matmul per kernel tap (Fig. 3(b)); the adder tree reduces
        // partials, so the taps are pure repeats.
        plan.ops.push_back(matmul_shaped(
            PrimitiveKind::kChannelwiseTile, positions, layer.in_c,
            layer.out_c, /*repeats=*/layer.kernel_h * layer.kernel_w, cfg));
      } else {
        PrimitiveOp op = matmul_shaped(
            PrimitiveKind::kIm2colTile, positions,
            layer.kernel_h * layer.kernel_w * layer.in_c, layer.out_c,
            /*repeats=*/1, cfg);
        op.taps_h = layer.kernel_h;
        op.taps_w = layer.kernel_w;
        plan.ops.push_back(op);
      }
      break;
    case OpKind::kGroupedConv: {
      check_grouped_conv(layer);
      // Each group is an independent im2col matmul over its own channels.
      PrimitiveOp op = matmul_shaped(
          PrimitiveKind::kIm2colTile, positions,
          layer.kernel_h * layer.kernel_w * (layer.in_c / layer.groups),
          layer.out_c / layer.groups, /*repeats=*/layer.groups, cfg);
      op.taps_h = layer.kernel_h;
      op.taps_w = layer.kernel_w;
      plan.ops.push_back(op);
      break;
    }
    case OpKind::kDepthwiseConv: {
      // One single-column matmul per channel — the §III-B pathology.
      // Different channels read different inputs, so the idle columns
      // cannot be shared and the channels serialize. Rectangular kernels
      // keep their window as taps_h x taps_w.
      PrimitiveOp op = matmul_shaped(
          PrimitiveKind::kIm2colTile, positions,
          layer.kernel_h * layer.kernel_w, /*n=*/1,
          /*repeats=*/layer.out_c, cfg);
      op.taps_h = layer.kernel_h;
      op.taps_w = layer.kernel_w;
      plan.ops.push_back(op);
      break;
    }
    case OpKind::kPointwiseConv:
      plan.ops.push_back(matmul_shaped(PrimitiveKind::kMatmulTile, positions,
                                       layer.in_c, layer.out_c,
                                       /*repeats=*/1, cfg));
      break;
    case OpKind::kFuseRowConv:
      // One 1-D convolution per (channel, output row): strided rows are
      // whole lines and ARE skipped; along the convolved axis a strided
      // layer computes the dense width and keeps every stride-th output.
      plan.ops.push_back(fuse_lines(
          m_scale * layer.out_c * layer.out_h,
          fuse_dense_width(layer.out_w, layer.in_w, layer.pad_w,
                           layer.kernel_w, layer.stride_w, cfg),
          layer.out_w, layer.kernel_w, cfg));
      break;
    case OpKind::kFuseColConv:
      plan.ops.push_back(fuse_lines(
          m_scale * layer.out_c * layer.out_w,
          fuse_dense_width(layer.out_h, layer.in_h, layer.pad_h,
                           layer.kernel_h, layer.stride_h, cfg),
          layer.out_h, layer.kernel_h, cfg));
      break;
    case OpKind::kFullyConnected:
      // m_scale is the batch here: it fills otherwise-idle array rows.
      plan.ops.push_back(matmul_shaped(PrimitiveKind::kMatmulTile, m_scale,
                                       layer.in_c, layer.out_c,
                                       /*repeats=*/1, cfg));
      break;
    case OpKind::kAvgPool:
    case OpKind::kMaxPool:
    case OpKind::kGlobalAvgPool:
    case OpKind::kActivation:
    case OpKind::kElementwiseAdd:
      break;  // zero array cycles: the plan stays empty
  }
  record_plan_metrics(plan);
  return plan;
}

}  // namespace

std::int64_t fuse_dense_width(std::int64_t keep, std::int64_t in,
                              std::int64_t pad, std::int64_t taps,
                              std::int64_t stride, const ArrayConfig& cfg) {
  if (cfg.strided_fuse_dense_compute && stride > 1) {
    return in + 2 * pad - taps + 1;
  }
  return keep;
}

void check_grouped_conv(const LayerDesc& layer) {
  FUSE_CHECK(layer.groups > 0 && layer.in_c % layer.groups == 0 &&
             layer.out_c % layer.groups == 0)
      << "grouped conv channels not divisible by groups for layer "
      << layer.name << " (in_c=" << layer.in_c << ", out_c=" << layer.out_c
      << ", groups=" << layer.groups << ")";
}

MappingPlan lower(const LayerDesc& layer, const ArrayConfig& cfg) {
  return lower_impl(layer, cfg, /*m_scale=*/1, /*allow_channelwise=*/true);
}

MappingPlan lower_batched(const LayerDesc& layer, const ArrayConfig& cfg,
                          std::int64_t batch) {
  FUSE_CHECK(batch >= 1) << "batch must be >= 1";
  return lower_impl(layer, cfg, /*m_scale=*/batch,
                    /*allow_channelwise=*/false);
}

TrafficEstimate plan_traffic(const MappingPlan& plan, const ArrayConfig& cfg,
                             const MemoryConfig& mem) {
  TrafficEstimate traffic;
  for (const PrimitiveOp& op : plan.ops) {
    const std::uint64_t repeats = static_cast<std::uint64_t>(op.repeats);
    switch (op.kind) {
      case PrimitiveKind::kMatmulTile:
      case PrimitiveKind::kIm2colTile: {
        const TrafficEstimate per = matmul_traffic(op.m, op.k, op.n, cfg, mem);
        traffic.input_bytes += per.input_bytes * repeats;
        traffic.weight_bytes += per.weight_bytes * repeats;
        traffic.output_bytes += per.output_bytes * repeats;
        break;
      }
      case PrimitiveKind::kChannelwiseTile: {
        // Per-tap operand streams scale with the repeats, but the adder
        // tree reduces partials on-chip: the output leaves once.
        const TrafficEstimate per = matmul_traffic(op.m, op.k, op.n, cfg, mem);
        traffic.input_bytes += per.input_bytes * repeats;
        traffic.weight_bytes += per.weight_bytes * repeats;
        traffic.output_bytes += per.output_bytes;
        break;
      }
      case PrimitiveKind::kFuse1DLine:
        // Window reads fold over the KEPT outputs: dense positions a
        // strided layer computes and discards shift through the array
        // without extra DRAM reads. Same traffic with or without
        // broadcast links — the ablation varies compute only.
        traffic += fuse1d_traffic(op.lines, op.line_keep, op.taps, cfg, mem);
        break;
    }
  }
  return traffic;
}

}  // namespace fuse::systolic
