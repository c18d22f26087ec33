// Tests for the network zoo: geometry chaining, MAC/param counts against
// the published figures, slot counts, and drop-in shape preservation under
// the FuSe transform.
#include <gtest/gtest.h>

#include "nets/builder.hpp"
#include "nets/serialize.hpp"
#include "nets/zoo.hpp"
#include "util/check.hpp"

namespace fuse::nets {
namespace {

using core::FuseMode;
using nn::LayerDesc;
using nn::OpKind;

double macs_millions(const NetworkModel& model) {
  return static_cast<double>(model.total_macs()) / 1e6;
}

double params_millions(const NetworkModel& model) {
  return static_cast<double>(model.total_params()) / 1e6;
}

/// Every layer's input geometry must chain from some prior activation; for
/// this IR we verify the simpler invariant that consecutive *main-path*
/// layers chain exactly (side/skip layers are tagged by construction).
void check_geometry_sane(const NetworkModel& model) {
  for (const LayerDesc& layer : model.layers) {
    EXPECT_GT(layer.in_c, 0) << layer.name;
    EXPECT_GT(layer.out_c, 0) << layer.name;
    EXPECT_GT(layer.out_h, 0) << layer.name;
    EXPECT_GT(layer.out_w, 0) << layer.name;
    EXPECT_LE(layer.out_h, layer.in_h) << layer.name;  // nets only shrink
  }
}

// --- make_divisible ---------------------------------------------------------

TEST(MakeDivisible, MobileNetV3Rule) {
  EXPECT_EQ(make_divisible(8), 8);
  EXPECT_EQ(make_divisible(12), 16);  // rounds to nearest multiple, up on tie
  EXPECT_EQ(make_divisible(11), 16);  // 8 would be below 90% of 11 -> bump
  EXPECT_EQ(make_divisible(100), 104);
  EXPECT_EQ(make_divisible(3), 8);    // never below divisor
}

// --- per-network counts -----------------------------------------------------

TEST(MobileNetV1, CountsNearPublished) {
  const NetworkModel m = mobilenet_v1({});
  EXPECT_EQ(m.num_slots, 13);
  EXPECT_NEAR(macs_millions(m), 569, 30);    // published ~569M (paper: 589)
  EXPECT_NEAR(params_millions(m), 4.23, 0.15);
  check_geometry_sane(m);
}

TEST(MobileNetV1, FinalActivationIs7x7x1024) {
  const NetworkModel m = mobilenet_v1({});
  // The layer before the global pool.
  const LayerDesc* last_conv = nullptr;
  for (const LayerDesc& l : m.layers) {
    if (l.kind == OpKind::kPointwiseConv) {
      last_conv = &l;
    }
  }
  ASSERT_NE(last_conv, nullptr);
  EXPECT_EQ(last_conv->out_c, 1024);
  EXPECT_EQ(last_conv->out_h, 7);
}

TEST(MobileNetV2, CountsNearPublished) {
  const NetworkModel m = mobilenet_v2({});
  EXPECT_EQ(m.num_slots, 17);
  EXPECT_NEAR(macs_millions(m), 300, 20);    // published ~300M (paper: 315)
  EXPECT_NEAR(params_millions(m), 3.50, 0.15);
  check_geometry_sane(m);
}

TEST(MobileNetV3Large, CountsNearPublished) {
  const NetworkModel m = mobilenet_v3_large({});
  EXPECT_EQ(m.num_slots, 15);
  EXPECT_NEAR(macs_millions(m), 219, 25);    // published ~219M (paper: 238)
  EXPECT_NEAR(params_millions(m), 5.47, 0.3);
  check_geometry_sane(m);
}

TEST(MobileNetV3Small, CountsNearPublished) {
  const NetworkModel m = mobilenet_v3_small({});
  EXPECT_EQ(m.num_slots, 11);
  EXPECT_NEAR(macs_millions(m), 57, 12);     // published ~57M (paper: 66)
  EXPECT_NEAR(params_millions(m), 2.54, 0.45);
  check_geometry_sane(m);
}

TEST(MnasNetB1, CountsNearPublished) {
  const NetworkModel m = mnasnet_b1({});
  EXPECT_EQ(m.num_slots, 17);
  EXPECT_NEAR(macs_millions(m), 315, 20);    // published ~315M (paper: 325)
  EXPECT_NEAR(params_millions(m), 4.38, 0.2);
  check_geometry_sane(m);
}

TEST(ResNet50, CountsNearPublished) {
  const NetworkModel m = resnet50();
  EXPECT_NEAR(macs_millions(m), 4100, 150);  // ~4.1 GMACs
  EXPECT_NEAR(params_millions(m), 25.6, 1.0);
  EXPECT_EQ(m.num_slots, 0);
  check_geometry_sane(m);
}

TEST(ResNet50, HasTwelveTimesMoreMacsThanV2) {
  // The intro's motivating numbers.
  const double ratio = macs_millions(resnet50()) /
                       macs_millions(mobilenet_v2({}));
  EXPECT_GT(ratio, 11.0);
  EXPECT_LT(ratio, 15.0);
}

// --- zoo dispatch ------------------------------------------------------------

TEST(Zoo, PaperNetworksAreTheFive) {
  EXPECT_EQ(paper_networks().size(), 5u);
}

TEST(Zoo, NamesMatchTable) {
  EXPECT_EQ(network_name(NetworkId::kMobileNetV1), "MobileNet-V1");
  EXPECT_EQ(network_name(NetworkId::kMnasNetB1), "MnasNet-B1");
}

TEST(Zoo, BuildDispatchesToRightNetwork) {
  EXPECT_EQ(build_network(NetworkId::kMobileNetV3Small).name,
            "MobileNet-V3-Small");
}

TEST(Zoo, ResNetRejectsFuseModes) {
  EXPECT_THROW(build_network(NetworkId::kResNet50, {FuseMode::kFull}),
               util::Error);
}

TEST(Zoo, PaperTable1HasFiveRowsPerNetwork) {
  for (NetworkId id : paper_networks()) {
    EXPECT_EQ(paper_table1(id).size(), 5u);
  }
  EXPECT_TRUE(paper_table1(NetworkId::kResNet50).empty());
}

// --- fuse transform through the builder --------------------------------------

class ZooTransform : public ::testing::TestWithParam<NetworkId> {};

TEST_P(ZooTransform, WrongModeCountThrows) {
  EXPECT_THROW(build_network(GetParam(), {FuseMode::kFull}), util::Error);
}

TEST_P(ZooTransform, FullVariantRemovesAllDepthwiseLayers) {
  const NetworkId id = GetParam();
  const int slots = num_fuse_slots(id);
  const NetworkModel fused =
      build_network(id, core::uniform_modes(slots, FuseMode::kFull));
  int dw = 0, fuse_rows = 0, fuse_cols = 0;
  for (const LayerDesc& l : fused.layers) {
    if (l.kind == OpKind::kDepthwiseConv) {
      ++dw;
    }
    if (l.kind == OpKind::kFuseRowConv) {
      ++fuse_rows;
    }
    if (l.kind == OpKind::kFuseColConv) {
      ++fuse_cols;
    }
  }
  EXPECT_EQ(dw, 0);
  EXPECT_EQ(fuse_rows, slots);
  EXPECT_EQ(fuse_cols, slots);
}

TEST_P(ZooTransform, TransformPreservesNetworkInterface) {
  // Drop-in property at network level: the classifier geometry is
  // untouched by any variant.
  const NetworkId id = GetParam();
  const int slots = num_fuse_slots(id);
  const NetworkModel base = build_network(id);
  for (FuseMode mode : {FuseMode::kFull, FuseMode::kHalf}) {
    const NetworkModel fused =
        build_network(id, core::uniform_modes(slots, mode));
    const LayerDesc& base_fc = base.layers.back();
    const LayerDesc& fused_fc = fused.layers.back();
    EXPECT_EQ(base_fc.kind, OpKind::kFullyConnected);
    EXPECT_EQ(fused_fc.in_c, base_fc.in_c);
    EXPECT_EQ(fused_fc.out_c, base_fc.out_c);
    check_geometry_sane(fused);
  }
}

TEST_P(ZooTransform, HalfVariantReducesMacs) {
  // Table I: Half variants have slightly FEWER MACs than baseline (K -> 1
  // taps per output beats the K^2 kernel).
  const NetworkId id = GetParam();
  const int slots = num_fuse_slots(id);
  const NetworkModel base = build_network(id);
  const NetworkModel half =
      build_network(id, core::uniform_modes(slots, FuseMode::kHalf));
  EXPECT_LT(half.total_macs(), base.total_macs());
  EXPECT_GT(half.total_macs(), base.total_macs() * 8 / 10);
}

TEST_P(ZooTransform, FullVariantIncreasesMacs) {
  // Table I: Full variants add MACs (1.2x-2x depending on network).
  const NetworkId id = GetParam();
  const int slots = num_fuse_slots(id);
  const NetworkModel base = build_network(id);
  const NetworkModel full =
      build_network(id, core::uniform_modes(slots, FuseMode::kFull));
  EXPECT_GT(full.total_macs(), base.total_macs());
  EXPECT_LT(full.total_macs(), base.total_macs() * 2);
}

TEST_P(ZooTransform, MixedModesCompose) {
  const NetworkId id = GetParam();
  const int slots = num_fuse_slots(id);
  std::vector<FuseMode> modes(static_cast<std::size_t>(slots),
                              FuseMode::kBaseline);
  modes[0] = FuseMode::kFull;
  if (slots > 1) {
    modes[static_cast<std::size_t>(slots) - 1] = FuseMode::kHalf;
  }
  const NetworkModel mixed = build_network(id, modes);
  check_geometry_sane(mixed);
  int fuse_layers = 0;
  for (const LayerDesc& l : mixed.layers) {
    if (l.kind == OpKind::kFuseRowConv || l.kind == OpKind::kFuseColConv) {
      ++fuse_layers;
    }
  }
  EXPECT_EQ(fuse_layers, slots > 1 ? 4 : 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllNetworks, ZooTransform,
    ::testing::Values(NetworkId::kMobileNetV1, NetworkId::kMobileNetV2,
                      NetworkId::kMobileNetV3Small,
                      NetworkId::kMobileNetV3Large, NetworkId::kMnasNetB1),
    [](const ::testing::TestParamInfo<NetworkId>& info) {
      std::string name = network_name(info.param);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// --- builder-level checks ----------------------------------------------------

TEST(Builder, SlotTagsCoverDepthwiseAndProjection) {
  const NetworkModel m = mobilenet_v2({});
  // Every depthwise layer and its projection pointwise must share a slot.
  int tagged_dw = 0, tagged_pw = 0;
  for (const LayerDesc& l : m.layers) {
    if (l.kind == OpKind::kDepthwiseConv && l.fuse_slot >= 0) {
      ++tagged_dw;
    }
    if (l.kind == OpKind::kPointwiseConv && l.fuse_slot >= 0) {
      ++tagged_pw;
    }
  }
  EXPECT_EQ(tagged_dw, 17);
  EXPECT_EQ(tagged_pw, 17);  // exactly the projection pointwise layers
}

TEST(Builder, SqueezeExciteTaggedInsideSlot) {
  const NetworkModel m = mobilenet_v3_small({});
  bool found_se_fc_with_slot = false;
  for (const LayerDesc& l : m.layers) {
    if (l.in_squeeze_excite && l.kind == OpKind::kFullyConnected) {
      EXPECT_GE(l.fuse_slot, 0) << l.name;
      found_se_fc_with_slot = true;
    }
  }
  EXPECT_TRUE(found_se_fc_with_slot);
}

TEST(Builder, FuseFullWidensSqueezeExcite) {
  // Drop-in behaviour: the SE block after a Full replacement sees 2x
  // channels.
  const NetworkModel base = mobilenet_v3_small({});
  const NetworkModel full = mobilenet_v3_small(
      core::uniform_modes(11, FuseMode::kFull));
  const auto find_first_se_reduce = [](const NetworkModel& m) -> LayerDesc {
    for (const LayerDesc& l : m.layers) {
      if (l.in_squeeze_excite && l.kind == OpKind::kFullyConnected) {
        return l;
      }
    }
    return {};
  };
  const LayerDesc base_se = find_first_se_reduce(base);
  const LayerDesc full_se = find_first_se_reduce(full);
  EXPECT_EQ(full_se.in_c, 2 * base_se.in_c);
}

TEST(Builder, ResidualAddsPresentInV2) {
  const NetworkModel m = mobilenet_v2({});
  int adds = 0;
  for (const LayerDesc& l : m.layers) {
    if (l.kind == OpKind::kElementwiseAdd) {
      ++adds;
    }
  }
  // V2 repeats with stride 1 and matching channels: (2-1)+(3-1)+(4-1)+
  // (3-1)+(3-1) = 10.
  EXPECT_EQ(adds, 10);
}


TEST(WidthMultiplier, ScalesChannelsAndCounts) {
  const NetworkModel full = mobilenet_v1({}, 1.0);
  const NetworkModel half = mobilenet_v1({}, 0.5);
  EXPECT_EQ(half.num_slots, full.num_slots);
  EXPECT_LT(half.total_macs(), full.total_macs() / 3);
  EXPECT_LT(half.total_params(), full.total_params() / 2);
  // Published alpha=0.5 V1: ~149M MACs, ~1.3M params.
  EXPECT_NEAR(static_cast<double>(half.total_macs()) / 1e6, 149, 15);
  check_geometry_sane(half);
}

TEST(WidthMultiplier, V2HeadDoesNotShrinkBelow1280) {
  const NetworkModel quarter = mobilenet_v2({}, 0.25);
  const nn::LayerDesc* head = nullptr;
  for (const nn::LayerDesc& l : quarter.layers) {
    if (l.kind == OpKind::kPointwiseConv) {
      head = &l;  // last pointwise is the head conv
    }
  }
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->out_c, 1280);
  check_geometry_sane(quarter);
}

TEST(WidthMultiplier, FuseModesComposeWithScaling) {
  const int slots = num_fuse_slots(NetworkId::kMobileNetV2);
  const NetworkModel scaled = build_network_scaled(
      NetworkId::kMobileNetV2, 0.5,
      core::uniform_modes(slots, FuseMode::kFull));
  int fuse_layers = 0;
  for (const nn::LayerDesc& l : scaled.layers) {
    if (l.kind == OpKind::kFuseRowConv || l.kind == OpKind::kFuseColConv) {
      ++fuse_layers;
    }
  }
  EXPECT_EQ(fuse_layers, 2 * slots);
  check_geometry_sane(scaled);
}

TEST(WidthMultiplier, RejectedForNetworksWithoutMultipliers) {
  EXPECT_THROW(build_network_scaled(NetworkId::kMnasNetB1, 0.5),
               util::Error);
  EXPECT_NO_THROW(build_network_scaled(NetworkId::kMnasNetB1, 1.0));
}

TEST(WidthMultiplier, OutOfRangeThrows) {
  EXPECT_THROW(mobilenet_v1({}, 0.0), util::Error);
  EXPECT_THROW(mobilenet_v2({}, 5.0), util::Error);
}


// --- serialization -------------------------------------------------------------

TEST(Serialize, RoundTripsEveryZooNetwork) {
  for (NetworkId id :
       {NetworkId::kMobileNetV1, NetworkId::kMobileNetV2,
        NetworkId::kMobileNetV3Small, NetworkId::kMobileNetV3Large,
        NetworkId::kMnasNetB1, NetworkId::kResNet50}) {
    const NetworkModel original = build_network(id);
    const NetworkModel parsed = from_text(to_text(original));
    EXPECT_EQ(parsed.name, original.name);
    EXPECT_EQ(parsed.num_slots, original.num_slots);
    ASSERT_EQ(parsed.layers.size(), original.layers.size());
    EXPECT_EQ(parsed.total_macs(), original.total_macs());
    EXPECT_EQ(parsed.total_params(), original.total_params());
    for (std::size_t i = 0; i < parsed.layers.size(); ++i) {
      const LayerDesc& a = parsed.layers[i];
      const LayerDesc& b = original.layers[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.in_c, b.in_c);
      EXPECT_EQ(a.out_h, b.out_h);
      EXPECT_EQ(a.groups, b.groups);
      EXPECT_EQ(a.activation, b.activation);
      EXPECT_EQ(a.fuse_slot, b.fuse_slot);
      EXPECT_EQ(a.in_squeeze_excite, b.in_squeeze_excite);
    }
  }
}

TEST(Serialize, RoundTripsFuseVariants) {
  const NetworkModel original = build_network(
      NetworkId::kMobileNetV2,
      core::uniform_modes(17, FuseMode::kFull));
  const NetworkModel parsed = from_text(to_text(original));
  EXPECT_EQ(parsed.total_macs(), original.total_macs());
  int fuse_layers = 0;
  for (const LayerDesc& l : parsed.layers) {
    if (l.kind == OpKind::kFuseRowConv || l.kind == OpKind::kFuseColConv) {
      ++fuse_layers;
    }
  }
  EXPECT_EQ(fuse_layers, 34);
}

TEST(Serialize, FileRoundTrip) {
  const NetworkModel original = build_network(NetworkId::kMobileNetV3Small);
  const std::string path = testing::TempDir() + "/fuse_net.txt";
  save_network(original, path);
  const NetworkModel loaded = load_network(path);
  EXPECT_EQ(loaded.total_params(), original.total_params());
  std::remove(path.c_str());
}

TEST(Serialize, MalformedInputThrows) {
  EXPECT_THROW(from_text(""), util::Error);
  EXPECT_THROW(from_text("not-a-network"), util::Error);
  EXPECT_THROW(from_text("fusenet v2 name x slots 0 layers 0\n"),
               util::Error);
  // Layer counts that cannot be allocated, with no records behind them.
  EXPECT_THROW(from_text("fusenet v1 name x slots 0 layers 4000000000\n"),
               util::Error);
  EXPECT_THROW(from_text("fusenet v1 name x slots 0 layers -1\n"),
               util::Error);
  // Truncated layer record.
  const NetworkModel m = build_network(NetworkId::kMobileNetV3Small);
  std::string text = to_text(m);
  text.resize(text.size() / 2);
  EXPECT_THROW(from_text(text), util::Error);
}

TEST(Serialize, UnknownKindThrows) {
  std::string text =
      "fusenet v1 name n slots 0 layers 1\n"
      "layer l kind warp in 1 1 1 out 1 1 1 k 1 1 s 1 1 p 0 0 g 1 "
      "bias 0 bn 0 act none se 0 slot -1\n";
  EXPECT_THROW(from_text(text), util::Error);
}

TEST(Serialize, LoadMissingFileThrows) {
  EXPECT_THROW(load_network("/nonexistent/fuse_net.txt"), util::Error);
}


TEST(Resolution, ScalesSpatialDimsOnly) {
  const NetworkModel r224 = mobilenet_v2({}, 1.0, 224);
  const NetworkModel r128 = mobilenet_v2({}, 1.0, 128);
  EXPECT_EQ(r128.num_slots, r224.num_slots);
  EXPECT_EQ(r128.total_params(), r224.total_params());  // weights unchanged
  EXPECT_LT(r128.total_macs(), r224.total_macs() / 2);  // ~(128/224)^2
  EXPECT_GT(r128.total_macs(), r224.total_macs() / 5);
  check_geometry_sane(r128);
}

TEST(Resolution, InvalidSizesThrow) {
  EXPECT_THROW(mobilenet_v1({}, 1.0, 100), util::Error);  // not /32
  EXPECT_THROW(mobilenet_v2({}, 1.0, 0), util::Error);
  EXPECT_THROW(build_network_scaled(NetworkId::kMnasNetB1, 1.0, {}, 128),
               util::Error);
}


TEST(PaperCrossCheck, FuseMacDeltasTrackTableOne) {
  // The paper's Table I MAC columns imply per-network Full/baseline and
  // Half/baseline ratios; our transform arithmetic must land within a few
  // percent of them (it is the same formula, (2/D)*C*(K + C') vs
  // C*(K^2 + C'), evaluated over the same layer geometry).
  for (NetworkId id : paper_networks()) {
    const auto paper = paper_table1(id);
    const double paper_base = paper[0].macs_millions;
    const double paper_full = paper[1].macs_millions;
    const double paper_half = paper[2].macs_millions;
    const int slots = num_fuse_slots(id);
    const double base =
        static_cast<double>(build_network(id).total_macs());
    const double full = static_cast<double>(
        build_network(id, core::uniform_modes(slots, FuseMode::kFull))
            .total_macs());
    const double half = static_cast<double>(
        build_network(id, core::uniform_modes(slots, FuseMode::kHalf))
            .total_macs());
    EXPECT_NEAR(full / base, paper_full / paper_base, 0.08)
        << network_name(id);
    EXPECT_NEAR(half / base, paper_half / paper_base, 0.05)
        << network_name(id);
  }
}

TEST(PaperCrossCheck, FuseParamDeltasTrackTableOne) {
  for (NetworkId id : paper_networks()) {
    const auto paper = paper_table1(id);
    const double paper_ratio =
        paper[1].params_millions / paper[0].params_millions;  // Full/base
    const int slots = num_fuse_slots(id);
    const double base =
        static_cast<double>(build_network(id).total_params());
    const double full = static_cast<double>(
        build_network(id, core::uniform_modes(slots, FuseMode::kFull))
            .total_params());
    EXPECT_NEAR(full / base, paper_ratio, 0.12) << network_name(id);
  }
}

}  // namespace
}  // namespace fuse::nets
