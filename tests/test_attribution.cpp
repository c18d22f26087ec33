// Tests for the bottleneck-attribution engine (sched/attribution.hpp):
// primitive splits must match hand-computed fold sums on every dataflow x
// overlap setting, and the network-level report must close all three
// identities (time, PE-cycles, roofline bound) and explain every schedule
// segment's duration for every paper network x variant x sched mode.
// attribute_network itself FUSE_CHECKs the identities, so most assertions
// here double as "the checks did not fire"; the EXPECTs restate them for
// gtest reporting.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sched/attribution.hpp"
#include "sched/latency.hpp"
#include "sched/netplan.hpp"
#include "sched/report.hpp"
#include "systolic/mapping.hpp"

namespace fuse::sched {
namespace {

using systolic::ArrayConfig;
using systolic::Dataflow;
using systolic::PrimitiveOp;

const systolic::MemoryConfig kMem;

std::vector<ArrayConfig> attribution_configs() {
  std::vector<ArrayConfig> configs;
  for (Dataflow dataflow : {Dataflow::kOutputStationary,
                            Dataflow::kWeightStationary,
                            Dataflow::kInputStationary}) {
    for (bool overlap : {false, true}) {
      ArrayConfig cfg;
      cfg.rows = 8;
      cfg.cols = 8;
      cfg.dataflow = dataflow;
      cfg.overlap_fold_drain = overlap;
      configs.push_back(cfg);
    }
  }
  return configs;
}

// Hand-computed splits on an 8x8 array. The matmul is the pointwise
// [10, 5] x [5, 9] (edge tiles on both axes of every fold grid):
//   OS: [10, 9] tiles 8x8, 8x1, 2x8, 2x1 — skew(R) + skew(C) + 5 each
//       (19, 12, 13, 6) plus drain 8, 8, 2, 2 (overlap: only the last 2);
//   WS: [5, 9] weight tiles 5x8, 5x1 — 10 + skew(5) + skew(C) each
//       (21, 14) plus preload 5 each (overlap: only the first);
//   IS: [10, 5] activation tiles 8x5, 2x5 — 9 + skew(R) + skew(5) each
//       (20, 14) plus preload 8, 2 (overlap: only the first, 8).
// The broadcast FuSe row is 10 lines of 9 outputs, 3 taps: waves 8x8,
// 8x1, 2x8, 2x1 cost skew(C) + 3 each (10, 3, 10, 3) plus drain 8, 8, 2,
// 2 (overlap: only the last 2).
TEST(Attribution, PrimitiveSplitsMatchHandComputedFolds) {
  struct Case {
    nn::LayerDesc layer;
    Dataflow dataflow;
    bool overlap;
    std::uint64_t compute;
    std::uint64_t fill_drain;
  };
  const nn::LayerDesc pw = nn::make_pointwise("pw", 5, 2, 5, 9);
  const nn::LayerDesc row = nn::make_fuse_row("row", 5, 2, 9, 3, 1, 1);
  const Case cases[] = {
      {pw, Dataflow::kOutputStationary, false, 4 * 5, 50},
      {pw, Dataflow::kOutputStationary, true, 4 * 5, 32},
      {pw, Dataflow::kWeightStationary, false, 2 * 10, 25},
      {pw, Dataflow::kWeightStationary, true, 2 * 10, 20},
      {pw, Dataflow::kInputStationary, false, 2 * 9, 26},
      {pw, Dataflow::kInputStationary, true, 2 * 9, 24},
      {row, Dataflow::kOutputStationary, false, 4 * 3, 34},
      {row, Dataflow::kOutputStationary, true, 4 * 3, 16},
  };
  for (const Case& c : cases) {
    ArrayConfig cfg;
    cfg.rows = 8;
    cfg.cols = 8;
    cfg.dataflow = c.dataflow;
    cfg.overlap_fold_drain = c.overlap;
    const systolic::MappingPlan plan = systolic::lower(c.layer, cfg);
    ASSERT_EQ(plan.ops.size(), 1u);
    const CycleSplit split = decompose_primitive(plan.ops[0], cfg);
    EXPECT_EQ(split.compute, c.compute)
        << c.layer.name << " on " << systolic::dataflow_name(c.dataflow)
        << " overlap=" << c.overlap;
    EXPECT_EQ(split.fill_drain, c.fill_drain)
        << c.layer.name << " on " << systolic::dataflow_name(c.dataflow)
        << " overlap=" << c.overlap;
    EXPECT_EQ(split.total(), plan.ops[0].total().cycles);
  }
}

TEST(Attribution, FoldWalkMatchesFoldCount) {
  for (const ArrayConfig& cfg : attribution_configs()) {
    const nn::LayerDesc dw = nn::make_depthwise("dw", 13, 9, 9, 3, 1, 1);
    for (const PrimitiveOp& op : systolic::lower(dw, cfg).ops) {
      std::uint64_t folds = 0;
      std::uint64_t macs = 0;
      std::uint64_t cycles = 0;
      systolic::for_each_fold(op, cfg,
                              [&](const systolic::FoldTile&,
                                  std::uint64_t fold_cycles,
                                  std::uint64_t fold_macs) {
                                cycles += fold_cycles;
                                macs += fold_macs;
                                ++folds;
                              });
      const systolic::LatencyEstimate total = op.total();
      EXPECT_EQ(folds, total.folds);
      EXPECT_EQ(macs, total.mac_ops);
      EXPECT_EQ(cycles, total.cycles);
    }
  }
}

// The acceptance grid: every paper network x variant x sched mode closes
// the time, PE, and roofline identities (FUSE_CHECKed inside
// attribute_network; restated here against the plan's own numbers), on
// the paper's 64x64 array and on an 8x8 array without drain overlap, and
// every segment's split explains exactly its own duration.
TEST(Attribution, AllNetworksVariantsModes) {
  ArrayConfig small;
  small.rows = 8;
  small.cols = 8;
  small.overlap_fold_drain = false;
  for (const ArrayConfig& cfg : {ArrayConfig{}, small}) {
    for (nets::NetworkId id : nets::paper_networks()) {
      for (core::NetworkVariant variant : core::all_network_variants()) {
        const VariantBuild build = build_variant(id, variant, cfg);
        for (SchedMode mode : {SchedMode::kPerLayer, SchedMode::kFused}) {
          const NetworkPlan plan =
              plan_network(build.model, cfg, kMem, mode);
          const AttributionReport report =
              attribute_network(plan, build.model);
          EXPECT_EQ(report.total_cycles, plan.total_cycles);
          EXPECT_EQ(report.total_split.total(), plan.total_cycles);
          EXPECT_EQ(report.pe_busy + report.pe_idle_geometry +
                        report.pe_idle_fill_drain,
                    report.pe_total);
          const NetworkRoofline roofline = plan_roofline(plan);
          EXPECT_EQ(report.bound_cycles, roofline.bound_cycles);
          EXPECT_EQ(report.bound_cycles,
                    report.total_cycles + report.total_dram_stall);
          EXPECT_EQ(report.layers.size(), plan.on_array.size());
          ASSERT_EQ(report.segments.size(), plan.segments.size());
          // Each segment's split is its own duration, and the segment
          // shares reproduce each layer's decomposition.
          std::vector<CycleSplit> per_layer(plan.layer_latency.size());
          for (std::size_t s = 0; s < report.segments.size(); ++s) {
            const SegmentAttribution& sa = report.segments[s];
            EXPECT_EQ(sa.split.total(), plan.segments[s].duration())
                << build.model.name << " segment " << s << " of "
                << build.model.layers[sa.layer_index].name;
            per_layer[sa.layer_index] += sa.split;
          }
          for (const LayerAttribution& la : report.layers) {
            EXPECT_EQ(per_layer[la.layer_index].compute, la.split.compute)
                << la.name;
            EXPECT_EQ(per_layer[la.layer_index].total(), la.cycles)
                << la.name;
          }
          // By-class aggregation covers all attributed cycles.
          CycleSplit by_class_sum;
          for (int cls = 0; cls < 5; ++cls) {
            by_class_sum += report.by_class[cls];
          }
          EXPECT_EQ(by_class_sum.total(), report.total_cycles);
        }
      }
    }
  }
}

TEST(Attribution, DepthwisePathologyVisible) {
  // The paper's core claim, as numbers: a depthwise layer's PE occupancy
  // is far below a FuSe row layer of the same slot geometry.
  ArrayConfig cfg;
  const VariantBuild baseline = build_variant(
      nets::NetworkId::kMobileNetV1, core::NetworkVariant::kBaseline, cfg);
  const VariantBuild fused = build_variant(
      nets::NetworkId::kMobileNetV1, core::NetworkVariant::kFuseFull, cfg);
  const AttributionReport base_report = attribute_network(
      plan_network(baseline.model, cfg, kMem, SchedMode::kPerLayer),
      baseline.model);
  const AttributionReport fuse_report = attribute_network(
      plan_network(fused.model, cfg, kMem, SchedMode::kPerLayer),
      fused.model);

  CycleSplit dw = base_report.by_class[static_cast<int>(
      OperatorClass::kDepthwise)];
  CycleSplit fu =
      fuse_report.by_class[static_cast<int>(OperatorClass::kFuse)];
  ASSERT_GT(dw.total(), 0u);
  ASSERT_GT(fu.total(), 0u);
  // FuSe replaces the depthwise cycles with far fewer total cycles...
  EXPECT_LT(fu.total(), dw.total() / 2);
  // ...and the whole-network occupancy rises.
  EXPECT_GT(fuse_report.occupancy(), base_report.occupancy());

  double dw_occ = 0.0, fuse_occ = 0.0;
  std::uint64_t dw_n = 0, fuse_n = 0;
  for (const LayerAttribution& la : base_report.layers) {
    if (la.op_class == OperatorClass::kDepthwise) {
      dw_occ += la.occupancy();
      ++dw_n;
    }
  }
  for (const LayerAttribution& la : fuse_report.layers) {
    if (la.op_class == OperatorClass::kFuse) {
      fuse_occ += la.occupancy();
      ++fuse_n;
    }
  }
  ASSERT_GT(dw_n, 0u);
  ASSERT_GT(fuse_n, 0u);
  EXPECT_GT(fuse_occ / fuse_n, dw_occ / dw_n);
}

TEST(Attribution, FusedDramStallNeverWorse) {
  ArrayConfig cfg;
  for (nets::NetworkId id : nets::paper_networks()) {
    const VariantBuild build =
        build_variant(id, core::NetworkVariant::kFuseFull, cfg);
    const AttributionReport per_layer = attribute_network(
        plan_network(build.model, cfg, kMem, SchedMode::kPerLayer),
        build.model);
    const AttributionReport fused = attribute_network(
        plan_network(build.model, cfg, kMem, SchedMode::kFused),
        build.model);
    EXPECT_LE(fused.total_dram_stall, per_layer.total_dram_stall)
        << nets::network_name(id);
    EXPECT_EQ(fused.total_cycles, per_layer.total_cycles);
  }
}

TEST(Attribution, JsonParsesAndCarriesTotals) {
  ArrayConfig cfg;
  const VariantBuild build = build_variant(
      nets::NetworkId::kMobileNetV2, core::NetworkVariant::kFuseFull, cfg);
  const NetworkPlan plan =
      plan_network(build.model, cfg, kMem, SchedMode::kFused);
  const AttributionReport report = attribute_network(plan, build.model);
  std::ostringstream out;
  write_attribution_json(out, report);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"cycles\": " + std::to_string(report.total_cycles)),
            std::string::npos);
  EXPECT_NE(json.find("\"sched_mode\": \"fused\""), std::string::npos);
  // Balanced braces/brackets as a cheap structural sanity check (full
  // parse-back runs in tools/check.sh via python3).
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Attribution, ReportTablesRender) {
  ArrayConfig cfg;
  const VariantBuild build = build_variant(
      nets::NetworkId::kMobileNetV1, core::NetworkVariant::kBaseline, cfg);
  const NetworkPlan plan =
      plan_network(build.model, cfg, kMem, SchedMode::kPerLayer);
  const AttributionReport report = attribute_network(plan, build.model);

  const std::string layers = attribution_layer_table(report, 5).to_string();
  EXPECT_NE(layers.find("fill/drain"), std::string::npos);
  EXPECT_NE(layers.find("total"), std::string::npos);
  EXPECT_NE(layers.find(std::to_string(report.total_cycles)),
            std::string::npos);

  const std::string classes = attribution_class_table(report).to_string();
  EXPECT_NE(classes.find("depthwise"), std::string::npos);
  EXPECT_NE(classes.find("100.0%"), std::string::npos);

  const std::string units = attribution_unit_table(report).to_string();
  EXPECT_NE(units.find("dram stall"), std::string::npos);
  EXPECT_NE(units.find(std::to_string(report.bound_cycles)),
            std::string::npos);
}

}  // namespace
}  // namespace fuse::sched
