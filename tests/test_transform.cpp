// Tests for the network-level FuSe transform policy.
#include <gtest/gtest.h>

#include <utility>

#include "core/transform.hpp"
#include "util/check.hpp"

namespace fuse::core {
namespace {

TEST(VariantNames, MatchPaperLabels) {
  EXPECT_EQ(network_variant_name(NetworkVariant::kBaseline), "baseline");
  EXPECT_EQ(network_variant_name(NetworkVariant::kFuseFull), "FuSe-Full");
  EXPECT_EQ(network_variant_name(NetworkVariant::kFuseHalf), "FuSe-Half");
  EXPECT_EQ(network_variant_name(NetworkVariant::kFuseFull50),
            "FuSe-Full-50%");
  EXPECT_EQ(network_variant_name(NetworkVariant::kFuseHalf50),
            "FuSe-Half-50%");
}

TEST(VariantNames, AllVariantsListedInTableOrder) {
  const auto& variants = all_network_variants();
  ASSERT_EQ(variants.size(), 5u);
  EXPECT_EQ(variants[0], NetworkVariant::kBaseline);
  EXPECT_EQ(variants[4], NetworkVariant::kFuseHalf50);
}

TEST(VariantNames, ParsesEveryFlagSpelling) {
  const std::pair<const char*, NetworkVariant> spellings[] = {
      {"baseline", NetworkVariant::kBaseline},
      {"full", NetworkVariant::kFuseFull},
      {"fuse_full", NetworkVariant::kFuseFull},
      {"half", NetworkVariant::kFuseHalf},
      {"fuse_half", NetworkVariant::kFuseHalf},
      {"full50", NetworkVariant::kFuseFull50},
      {"fuse_full50", NetworkVariant::kFuseFull50},
      {"half50", NetworkVariant::kFuseHalf50},
      {"fuse_half50", NetworkVariant::kFuseHalf50},
  };
  for (const auto& [name, variant] : spellings) {
    EXPECT_EQ(parse_network_variant(name), variant) << name;
  }
  EXPECT_THROW(parse_network_variant("fuse_baseline"), util::Error);

  // parse_fuse_mode shares the non-50% spellings and rejects the rest.
  const std::pair<const char*, FuseMode> modes[] = {
      {"baseline", FuseMode::kBaseline}, {"full", FuseMode::kFull},
      {"fuse_full", FuseMode::kFull},    {"half", FuseMode::kHalf},
      {"fuse_half", FuseMode::kHalf},
  };
  for (const auto& [name, mode] : modes) {
    EXPECT_EQ(parse_fuse_mode(name), mode) << name;
  }
  for (const char* name : {"full50", "fuse_half50", "fuse_baseline", "bogus"}) {
    EXPECT_THROW(parse_fuse_mode(name), util::Error) << name;
  }
}

TEST(FuseModeVariant, MapsToDKnob) {
  EXPECT_EQ(fuse_mode_variant(FuseMode::kFull), FuseVariant::kFull);
  EXPECT_EQ(fuse_mode_variant(FuseMode::kHalf), FuseVariant::kHalf);
  EXPECT_THROW(fuse_mode_variant(FuseMode::kBaseline), util::Error);
}

TEST(UniformModes, FillsEverySlot) {
  const auto modes = uniform_modes(5, FuseMode::kFull);
  EXPECT_EQ(modes.size(), 5u);
  for (FuseMode m : modes) {
    EXPECT_EQ(m, FuseMode::kFull);
  }
}

TEST(TopHalfModes, PicksLargestSavings) {
  const std::vector<double> savings = {10.0, 50.0, 5.0, 40.0};
  const auto modes = top_half_modes(savings, FuseMode::kHalf);
  ASSERT_EQ(modes.size(), 4u);
  EXPECT_EQ(modes[0], FuseMode::kBaseline);
  EXPECT_EQ(modes[1], FuseMode::kHalf);
  EXPECT_EQ(modes[2], FuseMode::kBaseline);
  EXPECT_EQ(modes[3], FuseMode::kHalf);
}

TEST(TopHalfModes, OddCountRoundsUp) {
  const std::vector<double> savings = {3.0, 1.0, 2.0};
  const auto modes = top_half_modes(savings, FuseMode::kFull);
  int replaced = 0;
  for (FuseMode m : modes) {
    if (m == FuseMode::kFull) {
      ++replaced;
    }
  }
  EXPECT_EQ(replaced, 2);  // ceil(3/2)
  EXPECT_EQ(modes[0], FuseMode::kFull);
  EXPECT_EQ(modes[2], FuseMode::kFull);
  EXPECT_EQ(modes[1], FuseMode::kBaseline);
}

TEST(TopHalfModes, QuotaFilledEvenWithNegativeSavings) {
  // The paper replaces exactly 50%; slots with negative savings fill the
  // quota last.
  const std::vector<double> savings = {-5.0, -1.0};
  const auto modes = top_half_modes(savings, FuseMode::kFull);
  EXPECT_EQ(modes[0], FuseMode::kBaseline);
  EXPECT_EQ(modes[1], FuseMode::kFull);
}

TEST(TopHalfModes, StableOnTies) {
  const std::vector<double> savings = {1.0, 1.0, 1.0, 1.0};
  const auto modes = top_half_modes(savings, FuseMode::kFull);
  // stable_sort keeps index order: first two slots replaced.
  EXPECT_EQ(modes[0], FuseMode::kFull);
  EXPECT_EQ(modes[1], FuseMode::kFull);
  EXPECT_EQ(modes[2], FuseMode::kBaseline);
  EXPECT_EQ(modes[3], FuseMode::kBaseline);
}

TEST(TopHalfModes, RejectsBaselineMode) {
  EXPECT_THROW(top_half_modes({1.0}, FuseMode::kBaseline), util::Error);
}

TEST(ModesForVariant, BaselineNeedsNoSavings) {
  const auto modes =
      modes_for_variant(NetworkVariant::kBaseline, 3, {});
  for (FuseMode m : modes) {
    EXPECT_EQ(m, FuseMode::kBaseline);
  }
}

TEST(ModesForVariant, FullReplacesEverything) {
  const auto modes = modes_for_variant(NetworkVariant::kFuseFull, 4, {});
  for (FuseMode m : modes) {
    EXPECT_EQ(m, FuseMode::kFull);
  }
}

TEST(ModesForVariant, FiftyPercentNeedsSavings) {
  EXPECT_THROW(modes_for_variant(NetworkVariant::kFuseFull50, 3, {}),
               util::Error);
  const auto modes = modes_for_variant(NetworkVariant::kFuseHalf50, 3,
                                       {1.0, 3.0, 2.0});
  int replaced = 0;
  for (FuseMode m : modes) {
    if (m == FuseMode::kHalf) {
      ++replaced;
    }
  }
  EXPECT_EQ(replaced, 2);
  EXPECT_EQ(modes[1], FuseMode::kHalf);
}

}  // namespace
}  // namespace fuse::core
