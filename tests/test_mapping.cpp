// Tests for the array-mapping IR (systolic/mapping.hpp) that a generator
// cannot state: the lowering's error paths, glue and batched lowering,
// the traffic quirks, and golden plan snapshots of one layer per kind.
// That every cost path agrees with the plan fold on random layers is
// tests/test_differential.cpp's oracle chain.
#include <gtest/gtest.h>

#include "nn/layer.hpp"
#include "systolic/mapping.hpp"
#include "util/check.hpp"

namespace fuse::systolic {
namespace {

using nn::LayerDesc;
using nn::OpKind;

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

TEST(Lowering, RectangularDepthwiseKeepsItsWindow) {
  for (const auto& [k_h, k_w] :
       {std::pair<std::int64_t, std::int64_t>{3, 1}, {1, 5}, {5, 3}}) {
    const LayerDesc layer = conv_like(OpKind::kDepthwiseConv, 5, 5, 9, 11,
                                      k_h, k_w, 1, 5);
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

TEST(Lowering, BatchStacksAlongPositions) {
  // A batched standard conv is one im2col matmul over every image's
  // output positions; a batch below 1 is refused.
  const ArrayConfig cfg = test_array(8, 8);
  const LayerDesc conv = conv_like(OpKind::kStandardConv, 3, 5, 7, 7, 3, 3,
                                   1, 1);
  const MappingPlan batched = lower(conv, cfg, 4);
  ASSERT_EQ(batched.ops.size(), 1u);
  EXPECT_EQ(batched.ops[0].kind, PrimitiveKind::kIm2colTile);
  EXPECT_EQ(batched.ops[0].m, 4 * conv.out_h * conv.out_w);
  EXPECT_THROW(lower(conv, cfg, 0), util::Error);
}

TEST(PlanTraffic, StridedFuseChargesKeptOutputsOnly) {
  // Dense positions a strided FuSe layer computes and discards shift
  // through the array without extra DRAM reads: the line computes its
  // dense width of 8 but traffic reads windows over the 4 kept outputs.
  const ArrayConfig cfg = test_array(8, 8);
  const MemoryConfig mem;
  const LayerDesc row = nn::make_fuse_row("row", 4, 8, 8, 3, 2, 1);
  const MappingPlan plan = lower(row, cfg);
  ASSERT_EQ(plan.ops.size(), 1u);
  EXPECT_EQ(plan.ops[0].line_out, 8);
  EXPECT_EQ(plan.ops[0].line_keep, 4);
  EXPECT_EQ(plan_traffic(plan, cfg, mem).total_bytes(),
            fuse1d_traffic(plan.ops[0].lines, 4, 3, cfg, mem).total_bytes());
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
