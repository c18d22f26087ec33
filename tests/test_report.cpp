// Tests for the sched report builders (Table-I rows, layer-wise speedups,
// scaling sweeps).
#include <gtest/gtest.h>

#include "sched/report.hpp"

namespace fuse::sched {
namespace {

using core::NetworkVariant;
using nets::NetworkId;

TEST(Table1Builder, SpeedupsConsistentWithDirectComputation) {
  const ArrayConfig cfg = systolic::square_array(32);  // off-headline size
  const auto rows = table1_rows(cfg);
  for (const Table1Row& row : rows) {
    const double direct = speedup_vs_baseline(row.network, row.variant, cfg);
    EXPECT_NEAR(row.speedup, direct, 1e-9)
        << nets::network_name(row.network) << " "
        << core::network_variant_name(row.variant);
  }
}

TEST(Table1Builder, CyclesDecreaseExactlyWhereSpeedupSaysSo) {
  const ArrayConfig cfg = systolic::square_array(64);
  const auto rows = table1_rows(cfg);
  std::uint64_t baseline_cycles = 0;
  for (const Table1Row& row : rows) {
    if (row.variant == NetworkVariant::kBaseline) {
      baseline_cycles = row.cycles;
    } else {
      EXPECT_NEAR(static_cast<double>(baseline_cycles) /
                      static_cast<double>(row.cycles),
                  row.speedup, 1e-9);
    }
  }
}

TEST(Table1Builder, ParamsIndependentOfArraySize) {
  // MACs/params are properties of the network; only the 50% variants may
  // differ across arrays (slot selection depends on per-slot savings).
  const auto rows32 = table1_rows(systolic::square_array(32));
  const auto rows64 = table1_rows(systolic::square_array(64));
  ASSERT_EQ(rows32.size(), rows64.size());
  for (std::size_t i = 0; i < rows32.size(); ++i) {
    if (rows32[i].variant == NetworkVariant::kFuseFull50 ||
        rows32[i].variant == NetworkVariant::kFuseHalf50) {
      continue;
    }
    EXPECT_EQ(rows32[i].macs, rows64[i].macs);
    EXPECT_EQ(rows32[i].params, rows64[i].params);
  }
}

TEST(LayerwiseBuilder, WorksForEveryNetworkAndMode) {
  const ArrayConfig cfg = systolic::square_array(64);
  for (NetworkId id : nets::paper_networks()) {
    for (core::FuseMode mode :
         {core::FuseMode::kFull, core::FuseMode::kHalf}) {
      const auto slots = layerwise_speedup(id, mode, cfg);
      EXPECT_EQ(static_cast<int>(slots.size()), nets::num_fuse_slots(id))
          << nets::network_name(id);
      for (const SlotSpeedup& s : slots) {
        EXPECT_GT(s.baseline_cycles, s.fused_cycles) << s.name;
      }
    }
  }
}

// scaling_sweep builds each network once per call and rebuilds only the
// 50% variants per size, whose slot choice follows the array: a target
// built once at the first size would show at 16 and 64.
TEST(ScalingBuilder, MatchesPerSizeSpeedups) {
  const std::vector<std::int64_t> sizes = {8, 16, 64};
  for (const NetworkVariant variant :
       {NetworkVariant::kFuseFull50, NetworkVariant::kFuseHalf50}) {
    const auto modes_at = [&](std::int64_t size) {
      return build_variant(NetworkId::kMobileNetV3Small, variant,
                           systolic::square_array(size))
          .modes;
    };
    EXPECT_NE(modes_at(8), modes_at(16));
    EXPECT_NE(modes_at(8), modes_at(64));
  }
  for (const NetworkVariant variant : core::all_network_variants()) {
    const auto points =
        scaling_sweep(NetworkId::kMobileNetV3Small, variant, sizes);
    ASSERT_EQ(points.size(), sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      EXPECT_EQ(points[i].array_size, sizes[i]);
      EXPECT_EQ(points[i].speedup,
                speedup_vs_baseline(NetworkId::kMobileNetV3Small, variant,
                                    systolic::square_array(sizes[i])))
          << core::network_variant_name(variant) << " at " << sizes[i];
    }
  }
}

}  // namespace
}  // namespace fuse::sched
