// Tests for the scheduler: layer->latency mapping, network totals, operator
// breakdowns, 50% slot selection, and the qualitative shape of the paper's
// headline results.
#include <gtest/gtest.h>

#include "sched/latency.hpp"
#include "sched/report.hpp"
#include "util/check.hpp"

namespace fuse::sched {
namespace {

using core::FuseMode;
using nets::NetworkId;
using nn::LayerDesc;
using nn::OpKind;

ArrayConfig paper_array() { return systolic::square_array(64); }

// --- layer_latency mappings ---------------------------------------------------

TEST(LayerLatency, StandardConvUsesIm2colMapping) {
  const LayerDesc l = nn::make_conv("c", 32, 28, 28, 64, 3, 1, 1);
  const ArrayConfig cfg = paper_array();
  EXPECT_EQ(layer_latency(l, cfg).cycles,
            systolic::matmul_latency(28 * 28, 3 * 3 * 32, 64, cfg).cycles);
}

TEST(LayerLatency, DepthwiseUsesSingleColumnMapping) {
  const LayerDesc l = nn::make_depthwise("dw", 32, 28, 28, 3, 1, 1);
  const ArrayConfig cfg = paper_array();
  EXPECT_EQ(layer_latency(l, cfg).cycles,
            32 * systolic::matmul_latency(28 * 28, 3 * 3, 1, cfg).cycles);
}

TEST(LayerLatency, PointwiseIsAMatmul) {
  const LayerDesc l = nn::make_pointwise("pw", 32, 28, 28, 64);
  const ArrayConfig cfg = paper_array();
  EXPECT_EQ(layer_latency(l, cfg).cycles,
            systolic::matmul_latency(28 * 28, 32, 64, cfg).cycles);
}

TEST(LayerLatency, FuseRowCountsChannelTimesRows) {
  const LayerDesc l = nn::make_fuse_row("r", 16, 28, 28, 3, 1, 1);
  const ArrayConfig cfg = paper_array();
  EXPECT_EQ(layer_latency(l, cfg).cycles,
            systolic::fuse1d_latency(16 * 28, 28, 3, cfg).cycles);
}

TEST(LayerLatency, FuseColCountsChannelTimesCols) {
  const LayerDesc l = nn::make_fuse_col("c", 16, 20, 30, 3, 1, 1);
  const ArrayConfig cfg = paper_array();
  // Column lines: one per (channel, output column) = 16 * 30; each spans
  // the 20 output rows.
  EXPECT_EQ(layer_latency(l, cfg).cycles,
            systolic::fuse1d_latency(16 * 30, 20, 3, cfg).cycles);
}

TEST(LayerLatency, StridedFuseRowComputesDenseAndDiscards) {
  // Horizontal stride 2: the shift-register flow cannot skip outputs, so
  // the dense width (28 + 2 - 3 + 1 = 28) is computed per line; whole
  // lines along the strided vertical axis ARE skipped (out_h = 14).
  const LayerDesc l = nn::make_fuse_row("r", 16, 28, 28, 3, 2, 1);
  const ArrayConfig cfg = paper_array();
  EXPECT_EQ(l.out_h, 14);
  EXPECT_EQ(layer_latency(l, cfg).cycles,
            systolic::fuse1d_latency(16 * 14, 28, 3, cfg).cycles);
}

TEST(LayerLatency, FuseWithoutBroadcastFallsBack) {
  const LayerDesc l = nn::make_fuse_row("r", 16, 28, 28, 3, 1, 1);
  ArrayConfig cfg = systolic::square_array(64, /*broadcast=*/false);
  // Each of the 16 * 28 lines is a serialized [28, 3] x [3, 1] matmul.
  EXPECT_EQ(layer_latency(l, cfg).cycles,
            16 * 28 * systolic::matmul_latency(28, 3, 1, cfg).cycles);
  // Without the proposed links FuSe is much slower than with them.
  EXPECT_GT(layer_latency(l, cfg).cycles,
            10 * layer_latency(l, paper_array()).cycles);
}

TEST(LayerLatency, GlueOpsAreFree) {
  LayerDesc pool;
  pool.kind = OpKind::kGlobalAvgPool;
  pool.in_c = pool.out_c = 32;
  pool.in_h = pool.in_w = 7;
  pool.out_h = pool.out_w = 1;
  EXPECT_EQ(layer_latency(pool, paper_array()).cycles, 0u);
}

TEST(LayerLatency, FullyConnectedMapped) {
  const LayerDesc l = nn::make_fully_connected("fc", 1024, 1000);
  const ArrayConfig cfg = paper_array();
  EXPECT_EQ(layer_latency(l, cfg).cycles,
            systolic::matmul_latency(1, 1024, 1000, cfg).cycles);
}

// --- network latency ----------------------------------------------------------

TEST(NetworkLatency, TotalsEqualSumOfLayers) {
  const auto model = nets::build_network(NetworkId::kMobileNetV2);
  const ArrayConfig cfg = paper_array();
  const NetworkLatency lat = network_latency(model, cfg);
  std::uint64_t sum = 0;
  for (const auto& est : lat.per_layer) {
    sum += est.cycles;
  }
  EXPECT_EQ(lat.total_cycles, sum);
  EXPECT_EQ(lat.per_layer.size(), model.layers.size());
  EXPECT_GT(lat.total_cycles, 0u);
}

TEST(NetworkLatency, UtilizationIsAFraction) {
  const auto model = nets::build_network(NetworkId::kMobileNetV1);
  const ArrayConfig cfg = paper_array();
  const double util = network_latency(model, cfg).utilization(cfg);
  EXPECT_GT(util, 0.0);
  EXPECT_LT(util, 1.0);
}

TEST(NetworkLatency, FuseVariantImprovesUtilization) {
  const ArrayConfig cfg = paper_array();
  const auto base = nets::build_network(NetworkId::kMobileNetV1);
  const auto full = nets::build_network(
      NetworkId::kMobileNetV1, core::uniform_modes(13, FuseMode::kFull));
  EXPECT_GT(network_latency(full, cfg).utilization(cfg),
            network_latency(base, cfg).utilization(cfg));
}

// --- operator breakdown (Fig. 8c) ----------------------------------------------

TEST(OperatorBreakdown, BaselineDominatedByDepthwise) {
  // Fig. 8(c) prose says 30-50%, but Table I's own speedups (up to 7.23x)
  // require >= ~85% of baseline latency to be removable (Amdahl), so the
  // consistent value is higher; our model lands at 0.85-0.92. We assert
  // the qualitative claim: depthwise dominates baseline latency, and by an
  // amount consistent with the reported end-to-end speedups.
  const ArrayConfig cfg = paper_array();
  for (NetworkId id : nets::paper_networks()) {
    const auto model = nets::build_network(id);
    const OperatorBreakdown b = operator_breakdown(model, cfg);
    const double dw_frac = b.fraction(OperatorClass::kDepthwise);
    EXPECT_GT(dw_frac, 0.5) << nets::network_name(id);
    EXPECT_LT(dw_frac, 0.95) << nets::network_name(id);
    // Amdahl consistency: the Half-variant speedup cannot exceed the
    // depthwise share's reciprocal by much.
    const double half = speedup_vs_baseline(
        id, core::NetworkVariant::kFuseHalf, cfg);
    EXPECT_LT(half, 1.0 / (1.0 - dw_frac) * 1.15) << nets::network_name(id);
  }
}

TEST(OperatorBreakdown, FuseNetworksShiftToPointwise) {
  // Paper: after the transform, FuSe operators account for only 4-11% and
  // pointwise dominates.
  const ArrayConfig cfg = paper_array();
  for (NetworkId id : nets::paper_networks()) {
    const int slots = nets::num_fuse_slots(id);
    const auto fused =
        nets::build_network(id, core::uniform_modes(slots, FuseMode::kFull));
    const OperatorBreakdown b = operator_breakdown(fused, cfg);
    EXPECT_EQ(b.of(OperatorClass::kDepthwise), 0u);
    const double fuse_frac = b.fraction(OperatorClass::kFuse);
    EXPECT_LT(fuse_frac, 0.25) << nets::network_name(id);
    EXPECT_GT(b.fraction(OperatorClass::kPointwise), fuse_frac)
        << nets::network_name(id);
  }
}

TEST(OperatorBreakdown, FractionsSumToOne) {
  const auto model = nets::build_network(NetworkId::kMnasNetB1);
  const OperatorBreakdown b = operator_breakdown(model, paper_array());
  double sum = 0.0;
  for (int i = 0; i < 5; ++i) {
    sum += b.fraction(static_cast<OperatorClass>(i));
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(OperatorBreakdown, ClassNames) {
  EXPECT_EQ(operator_class_name(OperatorClass::kDepthwise), "depthwise");
  EXPECT_EQ(operator_class_name(OperatorClass::kFuse), "fuse");
}

// --- slot savings / 50% variants ------------------------------------------------

TEST(SlotSavings, AllSlotsSaveCyclesOnThePaperArray) {
  const auto savings =
      slot_savings(NetworkId::kMobileNetV2, FuseMode::kHalf, paper_array());
  EXPECT_EQ(savings.size(), 17u);
  for (double s : savings) {
    EXPECT_GT(s, 0.0);
  }
}

TEST(SlotSavings, EarlyLayersSaveMore) {
  // Fig. 8(b): initial layers with larger feature maps benefit more. The
  // first depthwise slot must save more cycles than the last.
  const auto savings =
      slot_savings(NetworkId::kMobileNetV2, FuseMode::kFull, paper_array());
  EXPECT_GT(savings.front(), savings.back());
}

TEST(BuildVariant, FiftyPercentReplacesHalfTheSlots) {
  const VariantBuild build = build_variant(
      NetworkId::kMobileNetV1, core::NetworkVariant::kFuseHalf50,
      paper_array());
  int replaced = 0;
  for (FuseMode m : build.modes) {
    if (m != FuseMode::kBaseline) {
      ++replaced;
    }
  }
  EXPECT_EQ(replaced, 7);  // ceil(13/2)
}

TEST(BuildVariant, BaselineHasNoFuseLayers) {
  const VariantBuild build = build_variant(
      NetworkId::kMobileNetV2, core::NetworkVariant::kBaseline,
      paper_array());
  for (const LayerDesc& l : build.model.layers) {
    EXPECT_NE(l.kind, OpKind::kFuseRowConv);
    EXPECT_NE(l.kind, OpKind::kFuseColConv);
  }
}

// --- headline speedups (Table I shape) -------------------------------------------

TEST(Speedup, HalfVariantInPaperBand) {
  // Paper: 4.16x-7.23x on 64x64. Allow a generous band around it (our
  // latency model is a reimplementation, not the authors' code).
  for (NetworkId id : nets::paper_networks()) {
    const double s = speedup_vs_baseline(
        id, core::NetworkVariant::kFuseHalf, paper_array());
    EXPECT_GT(s, 3.5) << nets::network_name(id);
    EXPECT_LT(s, 12.0) << nets::network_name(id);
  }
}

TEST(Speedup, FullVariantInPaperBand) {
  // Paper: 3.02x-5.1x.
  for (NetworkId id : nets::paper_networks()) {
    const double s = speedup_vs_baseline(
        id, core::NetworkVariant::kFuseFull, paper_array());
    EXPECT_GT(s, 2.5) << nets::network_name(id);
    EXPECT_LT(s, 9.0) << nets::network_name(id);
  }
}

TEST(Speedup, OrderingHalfBeatsFullBeats50) {
  for (NetworkId id : nets::paper_networks()) {
    const ArrayConfig cfg = paper_array();
    const double half =
        speedup_vs_baseline(id, core::NetworkVariant::kFuseHalf, cfg);
    const double full =
        speedup_vs_baseline(id, core::NetworkVariant::kFuseFull, cfg);
    const double half50 =
        speedup_vs_baseline(id, core::NetworkVariant::kFuseHalf50, cfg);
    EXPECT_GT(half, full) << nets::network_name(id);
    EXPECT_GT(full, half50) << nets::network_name(id);
    EXPECT_GT(half50, 1.0) << nets::network_name(id);
  }
}

TEST(Speedup, FullVariantFasterDespiteMoreMacs) {
  // The paper's central counterintuitive: Full has MORE MACs than baseline
  // yet is much faster, because the mapping, not the arithmetic, dominates.
  const NetworkId id = NetworkId::kMobileNetV2;
  const ArrayConfig cfg = paper_array();
  const VariantBuild base =
      build_variant(id, core::NetworkVariant::kBaseline, cfg);
  const VariantBuild full =
      build_variant(id, core::NetworkVariant::kFuseFull, cfg);
  EXPECT_GT(full.model.total_macs(), base.model.total_macs());
  EXPECT_GT(speedup_vs_baseline(id, core::NetworkVariant::kFuseFull, cfg),
            2.0);
}

// --- scaling (Fig. 8d) --------------------------------------------------------

TEST(Scaling, SpeedupGrowsWithArraySize) {
  const auto points = scaling_sweep(
      NetworkId::kMobileNetV1, core::NetworkVariant::kFuseHalf,
      {8, 16, 32, 64, 128});
  ASSERT_EQ(points.size(), 5u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].speedup, points[i - 1].speedup)
        << "size " << points[i].array_size;
  }
}

TEST(Scaling, LargerNetworkGainsMoreOnLargeArrays) {
  // Paper: MobileNet-V1 (larger, older) shows higher speedup on large
  // arrays than MobileNet-V3-Small (newer, smaller).
  const ArrayConfig big = systolic::square_array(128);
  const double v1 = speedup_vs_baseline(
      NetworkId::kMobileNetV1, core::NetworkVariant::kFuseHalf, big);
  const double v3s = speedup_vs_baseline(
      NetworkId::kMobileNetV3Small, core::NetworkVariant::kFuseHalf, big);
  EXPECT_GT(v1, v3s);
}

// --- report builders ------------------------------------------------------------

TEST(Table1Rows, TwentyFiveRowsWithPaperReferences) {
  const auto rows = table1_rows(paper_array());
  ASSERT_EQ(rows.size(), 25u);
  for (const Table1Row& row : rows) {
    EXPECT_GT(row.cycles, 0u);
    EXPECT_GT(row.paper_accuracy, 60.0);  // every paper row has accuracy
    if (row.variant == core::NetworkVariant::kBaseline) {
      EXPECT_DOUBLE_EQ(row.speedup, 1.0);
    } else {
      EXPECT_GT(row.speedup, 1.0);
    }
  }
}

TEST(Table1Rows, MacsTrackPaperWithinTolerance) {
  // MAC counts should be within ~15% of the paper's column for baselines.
  for (const Table1Row& row : table1_rows(paper_array())) {
    if (row.variant != core::NetworkVariant::kBaseline) {
      continue;
    }
    const double measured = static_cast<double>(row.macs) / 1e6;
    EXPECT_NEAR(measured, row.paper_macs_millions,
                row.paper_macs_millions * 0.16)
        << nets::network_name(row.network);
  }
}

TEST(LayerwiseSpeedup, V2FullShapeMatchesFig8b) {
  // Paper: per-layer speedups range 2.48x-9.38x, larger for early layers.
  const auto slots = layerwise_speedup(NetworkId::kMobileNetV2,
                                       FuseMode::kFull, paper_array());
  ASSERT_EQ(slots.size(), 17u);
  for (const SlotSpeedup& s : slots) {
    EXPECT_GT(s.speedup, 1.3) << s.name;
    EXPECT_LT(s.speedup, 16.0) << s.name;
  }
  EXPECT_GT(slots.front().speedup, slots.back().speedup);
  // Metadata captured from the baseline depthwise layer.
  EXPECT_EQ(slots.front().in_h, 112);
  EXPECT_FALSE(slots.front().name.empty());
}

}  // namespace
}  // namespace fuse::sched
