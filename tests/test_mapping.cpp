// Tests for the array-mapping IR (systolic/mapping.hpp): the lowering
// pass is the single source of truth shared by the analytic model, the
// simulator, the executor, and the trace writer, so the core property here
// is differential —
//   sched::layer_latency == plan.total_latency() == sim.run_plan(plan)
// for randomized layers of every OpKind x {broadcast on/off} x
// {stride 1, 2}, including rectangular-kernel depthwise. Golden plan
// snapshots pin the lowering of one layer per kind.
#include <gtest/gtest.h>

#include "nn/layer.hpp"
#include "nn/ops.hpp"
#include "sched/execute.hpp"
#include "sched/latency.hpp"
#include "systolic/mapping.hpp"
#include "systolic/sim.hpp"
#include "systolic/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace fuse::systolic {
namespace {

using nn::LayerDesc;
using nn::OpKind;
using tensor::Shape;
using tensor::Tensor;

ArrayConfig test_array(std::int64_t rows, std::int64_t cols) {
  ArrayConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.overlap_fold_drain = false;  // the mode the simulator measures
  return cfg;
}

std::int64_t conv_out(std::int64_t in, std::int64_t k, std::int64_t stride,
                      std::int64_t pad) {
  return (in + 2 * pad - k) / stride + 1;
}

/// Conv-family LayerDesc with independent h/w geometry (the factories in
/// nn/layer.hpp only build square kernels).
LayerDesc conv_like(OpKind kind, std::int64_t in_c, std::int64_t out_c,
                    std::int64_t in_h, std::int64_t in_w, std::int64_t k_h,
                    std::int64_t k_w, std::int64_t stride,
                    std::int64_t groups) {
  LayerDesc layer;
  layer.kind = kind;
  layer.name = "layer";
  layer.in_c = in_c;
  layer.out_c = out_c;
  layer.in_h = in_h;
  layer.in_w = in_w;
  layer.kernel_h = k_h;
  layer.kernel_w = k_w;
  layer.stride_h = layer.stride_w = stride;
  layer.pad_h = k_h / 2;
  layer.pad_w = k_w / 2;
  layer.groups = groups;
  layer.out_h = conv_out(in_h, k_h, stride, layer.pad_h);
  layer.out_w = conv_out(in_w, k_w, stride, layer.pad_w);
  return layer;
}

/// One random latency-bearing layer of the given kind.
LayerDesc random_layer(OpKind kind, std::int64_t stride, util::Rng& rng) {
  const auto dim = [&](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng.uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  const std::int64_t in_h = dim(5, 12);
  const std::int64_t in_w = dim(5, 12);
  const std::int64_t k = 1 + 2 * dim(0, 1);  // 1 or 3
  switch (kind) {
    case OpKind::kStandardConv:
      return conv_like(kind, dim(1, 6), dim(1, 9), in_h, in_w, k, k,
                       stride, 1);
    case OpKind::kGroupedConv: {
      const std::int64_t groups = dim(1, 3);
      return conv_like(kind, groups * dim(1, 3), groups * dim(1, 3), in_h,
                       in_w, k, k, stride, groups);
    }
    case OpKind::kDepthwiseConv: {
      const std::int64_t c = dim(1, 6);
      // Rectangular kernels exercise the taps_h x taps_w window.
      return conv_like(kind, c, c, in_h, in_w, 1 + 2 * dim(0, 1),
                       1 + 2 * dim(0, 1), stride, c);
    }
    case OpKind::kPointwiseConv:
      return nn::make_pointwise("layer", dim(1, 6), in_h, in_w, dim(1, 9));
    case OpKind::kFuseRowConv:
      return nn::make_fuse_row("layer", dim(1, 6), in_h, in_w, k, stride,
                              k / 2);
    case OpKind::kFuseColConv:
      return nn::make_fuse_col("layer", dim(1, 6), in_h, in_w, k, stride,
                              k / 2);
    case OpKind::kFullyConnected:
      return nn::make_fully_connected("layer", dim(1, 40), dim(1, 30));
    default:
      FUSE_CHECK(false) << "not a latency-bearing kind";
  }
  return {};
}

/// The differential property: analytic latency, the plan fold, and the
/// cycle-level simulation of the plan agree exactly on cycles, folds, and
/// MACs.
void check_differential(const LayerDesc& layer, const ArrayConfig& cfg) {
  const MappingPlan plan = lower(layer, cfg);
  const LatencyEstimate analytic = sched::layer_latency(layer, cfg);
  const LatencyEstimate folded = plan.total_latency();
  ASSERT_EQ(analytic.cycles, folded.cycles) << plan.to_string();
  ASSERT_EQ(analytic.folds, folded.folds) << plan.to_string();
  ASSERT_EQ(analytic.mac_ops, folded.mac_ops) << plan.to_string();

  SystolicArraySim sim(cfg);
  const SimResult simmed = sim.run_plan(plan);
  ASSERT_EQ(simmed.cycles, folded.cycles) << plan.to_string();
  ASSERT_EQ(simmed.folds, folded.folds) << plan.to_string();
  ASSERT_EQ(simmed.mac_ops, folded.mac_ops) << plan.to_string();
}

TEST(MappingDifferential, EveryKindBroadcastAndStride) {
  const OpKind kinds[] = {
      OpKind::kStandardConv, OpKind::kGroupedConv, OpKind::kDepthwiseConv,
      OpKind::kPointwiseConv, OpKind::kFuseRowConv, OpKind::kFuseColConv,
      OpKind::kFullyConnected};
  std::uint64_t seed = 1;
  for (const OpKind kind : kinds) {
    for (const bool broadcast : {true, false}) {
      for (const std::int64_t stride : {1, 2}) {
        util::Rng rng(seed++);
        for (int trial = 0; trial < 4; ++trial) {
          ArrayConfig cfg = test_array(4 + 4 * static_cast<std::int64_t>(
                                               rng.uniform_index(2)),
                                       8);
          cfg.broadcast_links = broadcast;
          const LayerDesc layer = random_layer(kind, stride, rng);
          SCOPED_TRACE(nn::op_kind_name(kind) + " broadcast=" +
                       std::to_string(broadcast) + " stride=" +
                       std::to_string(stride) + " trial=" +
                       std::to_string(trial));
          check_differential(layer, cfg);
        }
      }
    }
  }
}

TEST(MappingDifferential, ChannelwiseStandardConvMapping) {
  util::Rng rng(99);
  for (const std::int64_t stride : {1, 2}) {
    for (int trial = 0; trial < 4; ++trial) {
      ArrayConfig cfg = test_array(8, 8);
      cfg.standard_conv_mapping = StandardConvMapping::kChannelwise;
      const LayerDesc layer =
          random_layer(OpKind::kStandardConv, stride, rng);
      SCOPED_TRACE("channelwise stride=" + std::to_string(stride));
      check_differential(layer, cfg);
    }
  }
}

TEST(MappingDifferential, RectangularDepthwiseKernels) {
  // The old latency path hard-rejected kernel_h != kernel_w; the lowering
  // carries the window as taps_h x taps_w and the property must hold.
  for (const auto& [k_h, k_w] :
       {std::pair<std::int64_t, std::int64_t>{3, 1}, {1, 5}, {5, 3}}) {
    const LayerDesc layer = conv_like(OpKind::kDepthwiseConv, 5, 5, 9, 11,
                                      k_h, k_w, 1, 5);
    SCOPED_TRACE(std::to_string(k_h) + "x" + std::to_string(k_w));
    check_differential(layer, test_array(8, 8));
    const MappingPlan plan = lower(layer, test_array(8, 8));
    ASSERT_EQ(plan.ops.size(), 1u);
    EXPECT_EQ(plan.ops[0].taps_h, k_h);
    EXPECT_EQ(plan.ops[0].taps_w, k_w);
    EXPECT_EQ(plan.ops[0].k, k_h * k_w);
  }
}

TEST(Lowering, GroupedConvRejectsIndivisibleChannels) {
  const ArrayConfig cfg = test_array(8, 8);
  LayerDesc bad = conv_like(OpKind::kGroupedConv, 7, 8, 6, 6, 3, 3, 1, 2);
  EXPECT_THROW(lower(bad, cfg), util::Error);
  bad = conv_like(OpKind::kGroupedConv, 8, 7, 6, 6, 3, 3, 1, 2);
  EXPECT_THROW(lower(bad, cfg), util::Error);
  bad = conv_like(OpKind::kGroupedConv, 8, 8, 6, 6, 3, 3, 1, 0);
  EXPECT_THROW(lower(bad, cfg), util::Error);
}

TEST(Lowering, GlueOpsLowerToEmptyPlans) {
  const ArrayConfig cfg = test_array(8, 8);
  for (const OpKind kind :
       {OpKind::kAvgPool, OpKind::kMaxPool, OpKind::kGlobalAvgPool,
        OpKind::kActivation, OpKind::kElementwiseAdd}) {
    LayerDesc glue;
    glue.kind = kind;
    glue.name = "glue";
    glue.in_c = glue.out_c = 4;
    glue.in_h = glue.in_w = glue.out_h = glue.out_w = 4;
    const MappingPlan plan = lower(glue, cfg);
    EXPECT_TRUE(plan.ops.empty()) << nn::op_kind_name(kind);
    EXPECT_EQ(plan.total_latency().cycles, 0u);
    EXPECT_EQ(plan.total_latency().pe_count, cfg.pe_count());
  }
}

TEST(Lowering, BatchedUsesIm2colAndIgnoresChannelwise) {
  // Batched standard conv always lowers as one im2col matmul — the
  // channelwise mapping is a batch-1 specialization.
  ArrayConfig cfg = test_array(8, 8);
  cfg.standard_conv_mapping = StandardConvMapping::kChannelwise;
  const LayerDesc conv = conv_like(OpKind::kStandardConv, 3, 5, 7, 7, 3, 3,
                                   1, 1);
  const MappingPlan batched = lower_batched(conv, cfg, 4);
  ASSERT_EQ(batched.ops.size(), 1u);
  EXPECT_EQ(batched.ops[0].kind, PrimitiveKind::kIm2colTile);
  EXPECT_EQ(batched.ops[0].m, 4 * conv.out_h * conv.out_w);
  EXPECT_EQ(lower(conv, cfg).ops[0].kind, PrimitiveKind::kChannelwiseTile);
  EXPECT_THROW(lower_batched(conv, cfg, 0), util::Error);
}

TEST(PlanTraffic, ChannelwiseMatchesIm2colBytes) {
  // The preserved quirk: standard-conv DRAM traffic is the im2col volume
  // regardless of the compute mapping (the adder tree only changes where
  // partials reduce, not what crosses DRAM).
  ArrayConfig im2col_cfg = test_array(8, 8);
  ArrayConfig cw_cfg = im2col_cfg;
  cw_cfg.standard_conv_mapping = StandardConvMapping::kChannelwise;
  const MemoryConfig mem;
  const LayerDesc conv = conv_like(OpKind::kStandardConv, 3, 5, 9, 9, 3, 3,
                                   1, 1);
  const TrafficEstimate a =
      plan_traffic(lower(conv, im2col_cfg), im2col_cfg, mem);
  const TrafficEstimate b = plan_traffic(lower(conv, cw_cfg), cw_cfg, mem);
  EXPECT_EQ(a.input_bytes, b.input_bytes);
  EXPECT_EQ(a.weight_bytes, b.weight_bytes);
  EXPECT_EQ(a.output_bytes, b.output_bytes);
}

TEST(PlanTraffic, StridedFuseChargesKeptOutputsOnly) {
  // Dense positions a strided FuSe layer computes and discards shift
  // through the array without extra DRAM reads: traffic is identical with
  // dense compute on or off, even though cycles differ.
  ArrayConfig dense_cfg = test_array(8, 8);
  ArrayConfig skip_cfg = dense_cfg;
  skip_cfg.strided_fuse_dense_compute = false;
  const MemoryConfig mem;
  const LayerDesc row = nn::make_fuse_row("row", 4, 8, 8, 3, 2, 1);
  const TrafficEstimate dense =
      plan_traffic(lower(row, dense_cfg), dense_cfg, mem);
  const TrafficEstimate skip =
      plan_traffic(lower(row, skip_cfg), skip_cfg, mem);
  EXPECT_EQ(dense.total_bytes(), skip.total_bytes());
  EXPECT_GT(lower(row, dense_cfg).total_latency().cycles,
            lower(row, skip_cfg).total_latency().cycles);
}

TEST(PlanTrace, TotalCyclesMatchPlanFold) {
  const MemoryConfig mem;
  util::Rng rng(7);
  for (const bool overlap : {false, true}) {
    ArrayConfig cfg = test_array(8, 8);
    cfg.overlap_fold_drain = overlap;
    for (const OpKind kind :
         {OpKind::kStandardConv, OpKind::kDepthwiseConv,
          OpKind::kFuseRowConv, OpKind::kPointwiseConv}) {
      const LayerDesc layer = random_layer(kind, 1, rng);
      const MappingPlan plan = lower(layer, cfg);
      const FoldTrace trace = plan_trace(plan, cfg, mem);
      EXPECT_EQ(trace.total_cycles, plan.total_latency().cycles)
          << nn::op_kind_name(kind) << " overlap=" << overlap;
      std::uint64_t folds = 0;
      for (const PrimitiveOp& op : plan.ops) {
        folds += op.total().folds;
      }
      EXPECT_EQ(trace.folds.size(), folds);
    }
  }
}

// --- executor cross-checks for the plan-selected paths ----------------------

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  t.fill_uniform(rng, -1.0F, 1.0F);
  return t;
}

TEST(PlanExecution, ChannelwiseConvMatchesReferenceAndLatency) {
  ArrayConfig cfg = test_array(8, 8);
  cfg.standard_conv_mapping = StandardConvMapping::kChannelwise;
  const LayerDesc layer = nn::make_conv("conv", 3, 8, 8, 5, 3, 1, 1);
  const Tensor input = random_tensor(Shape{1, 3, 8, 8}, 31);
  const Tensor weight = random_tensor(Shape{5, 3, 3, 3}, 32);
  nn::Conv2dParams p;
  p.pad_h = 1;
  p.pad_w = 1;
  const Tensor expected = nn::conv2d(input, weight, nullptr, p);
  const sched::LayerExecution exec =
      sched::execute_layer_on_array(layer, input, weight, cfg);
  EXPECT_TRUE(tensor::allclose(exec.output, expected, 1e-3F, 1e-4F))
      << "max diff " << tensor::max_abs_diff(exec.output, expected);
  const LatencyEstimate analytic = sched::layer_latency(layer, cfg);
  EXPECT_EQ(exec.cycles, analytic.cycles);
  EXPECT_EQ(exec.folds, analytic.folds);
  EXPECT_EQ(exec.mac_ops, analytic.mac_ops);
}

TEST(PlanExecution, NoBroadcastFuseMatchesReferenceAndLatency) {
  // The ablation array without per-row buses serializes each line as a
  // single-column matmul; the executor must follow the plan's fallback and
  // still produce the exact convolution.
  for (const std::int64_t stride : {1, 2}) {
    for (const bool dense : {true, false}) {
      ArrayConfig cfg = test_array(8, 8);
      cfg.broadcast_links = false;
      cfg.strided_fuse_dense_compute = dense;
      const LayerDesc layer =
          nn::make_fuse_row("row", 4, 8, 8, 3, stride, 1);
      const Tensor input = random_tensor(Shape{1, 4, 8, 8}, 41);
      const Tensor weight = random_tensor(Shape{4, 1, 1, 3}, 42);
      nn::Conv2dParams p;
      p.stride_h = stride;
      p.stride_w = stride;
      p.pad_w = 1;
      p.groups = 4;
      const Tensor expected = nn::conv2d(input, weight, nullptr, p);
      const sched::LayerExecution exec =
          sched::execute_layer_on_array(layer, input, weight, cfg);
      SCOPED_TRACE("stride=" + std::to_string(stride) + " dense=" +
                   std::to_string(dense));
      EXPECT_TRUE(tensor::allclose(exec.output, expected, 1e-3F, 1e-4F))
          << "max diff " << tensor::max_abs_diff(exec.output, expected);
      const LatencyEstimate analytic = sched::layer_latency(layer, cfg);
      EXPECT_EQ(exec.cycles, analytic.cycles);
      EXPECT_EQ(exec.mac_ops, analytic.mac_ops);
    }
  }
}

// --- golden plan snapshots ---------------------------------------------------

std::string plan_string(const LayerDesc& layer, ArrayConfig cfg) {
  return lower(layer, cfg).to_string();
}

TEST(PlanGolden, OneLayerPerKind) {
  const ArrayConfig cfg = test_array(8, 8);
  EXPECT_EQ(plan_string(nn::make_conv("c", 3, 8, 8, 5, 3, 1, 1), cfg),
            "im2col m=64 k=27 n=5 taps=3x3: 368 cycles, 8 folds, 8640 "
            "macs\n");
  ArrayConfig cw = cfg;
  cw.standard_conv_mapping = StandardConvMapping::kChannelwise;
  EXPECT_EQ(plan_string(nn::make_conv("c", 3, 8, 8, 5, 3, 1, 1), cw),
            "channelwise m=64 k=3 n=5 x9: 1584 cycles, 72 folds, 8640 "
            "macs\n");
  EXPECT_EQ(
      plan_string(conv_like(OpKind::kGroupedConv, 4, 6, 8, 8, 3, 3, 1, 2),
                  cfg),
      "im2col m=64 k=18 n=3 taps=3x3 x2: 560 cycles, 16 folds, 6912 "
      "macs\n");
  EXPECT_EQ(plan_string(nn::make_depthwise("d", 4, 8, 8, 3, 1, 1), cfg),
            "im2col m=64 k=9 n=1 taps=3x3 x4: 768 cycles, 32 folds, 2304 "
            "macs\n");
  EXPECT_EQ(plan_string(nn::make_pointwise("p", 6, 8, 8, 10), cfg),
            "matmul m=64 k=6 n=10: 400 cycles, 16 folds, 3840 macs\n");
  EXPECT_EQ(plan_string(nn::make_fuse_row("r", 4, 8, 8, 3, 1, 1), cfg),
            "fuse1d lines=32 out=8 taps=3 broadcast: 72 cycles, 4 folds, "
            "768 macs\n");
  EXPECT_EQ(plan_string(nn::make_fuse_col("l", 4, 8, 8, 3, 2, 1), cfg),
            "fuse1d lines=16 out=8 keep=4 taps=3 broadcast: 36 cycles, 2 "
            "folds, 384 macs\n");
  EXPECT_EQ(plan_string(nn::make_fully_connected("f", 12, 7), cfg),
            "matmul m=1 k=12 n=7: 19 cycles, 1 folds, 84 macs\n");
}

}  // namespace
}  // namespace fuse::systolic
