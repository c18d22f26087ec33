// Tests for the FuSeConv operator (core module).
#include <gtest/gtest.h>

#include "core/fuseconv.hpp"
#include "nn/ops.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace fuse::core {
namespace {

using nn::Conv2dParams;
using tensor::Shape;
using tensor::Tensor;
using tensor::allclose;

FuseConvSpec make_spec(std::int64_t channels, std::int64_t hw,
                       std::int64_t kernel, std::int64_t stride,
                       FuseVariant variant) {
  FuseConvSpec spec;
  spec.channels = channels;
  spec.in_h = hw;
  spec.in_w = hw;
  spec.kernel = kernel;
  spec.stride = stride;
  spec.pad = kernel / 2;
  spec.variant = variant;
  return spec;
}

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  t.fill_uniform(rng, -1.0F, 1.0F);
  return t;
}

// --- spec -------------------------------------------------------------------

TEST(FuseConvSpec, FullVariantDoublesChannels) {
  const FuseConvSpec spec = make_spec(32, 28, 3, 1, FuseVariant::kFull);
  EXPECT_EQ(spec.branch_channels(), 32);
  EXPECT_EQ(spec.out_channels(), 64);
}

TEST(FuseConvSpec, HalfVariantPreservesChannels) {
  const FuseConvSpec spec = make_spec(32, 28, 3, 1, FuseVariant::kHalf);
  EXPECT_EQ(spec.branch_channels(), 16);
  EXPECT_EQ(spec.out_channels(), 32);
}

TEST(FuseConvSpec, OutputSpatialSizeMatchesReplacedDepthwise) {
  for (std::int64_t stride : {1, 2}) {
    for (std::int64_t k : {3, 5}) {
      const FuseConvSpec spec = make_spec(8, 28, k, stride,
                                          FuseVariant::kHalf);
      EXPECT_EQ(spec.out_h(),
                tensor::conv_out_dim(28, k, stride, k / 2));
      EXPECT_EQ(spec.out_w(), spec.out_h());
    }
  }
}

TEST(FuseConvSpec, PaperParamFormula) {
  // (2/D)*C*K for the 1-D stage.
  EXPECT_EQ(make_spec(32, 28, 3, 1, FuseVariant::kFull).stage_params(),
            2ULL * 32 * 3);
  EXPECT_EQ(make_spec(32, 28, 3, 1, FuseVariant::kHalf).stage_params(),
            32ULL * 3);
}

TEST(FuseConvSpec, PaperMacFormula) {
  // (2/D)*N*M*C*K for the 1-D stage.
  const FuseConvSpec full = make_spec(32, 28, 3, 1, FuseVariant::kFull);
  EXPECT_EQ(full.stage_macs(), 2ULL * 28 * 28 * 32 * 3);
  const FuseConvSpec half = make_spec(32, 28, 3, 1, FuseVariant::kHalf);
  EXPECT_EQ(half.stage_macs(), 28ULL * 28 * 32 * 3);
}

TEST(FuseConvSpec, OddChannelsWithHalfVariantThrow) {
  EXPECT_THROW(make_spec(33, 28, 3, 1, FuseVariant::kHalf).validate(),
               util::Error);
}

TEST(FuseConvSpec, NonSamePaddingThrows) {
  FuseConvSpec spec = make_spec(8, 28, 3, 1, FuseVariant::kHalf);
  spec.pad = 0;
  EXPECT_THROW(spec.validate(), util::Error);
}

// --- forward ----------------------------------------------------------------

TEST(FuseConvForward, OutputShapeFull) {
  const FuseConvSpec spec = make_spec(4, 8, 3, 1, FuseVariant::kFull);
  util::Rng rng(1);
  const FuseConvStage stage(spec, rng);
  const Tensor input = random_tensor(Shape{2, 4, 8, 8}, 2);
  const Tensor out = stage.forward(input);
  EXPECT_EQ(out.shape(), (Shape{2, 8, 8, 8}));
}

TEST(FuseConvForward, OutputShapeHalfStride2) {
  const FuseConvSpec spec = make_spec(4, 8, 3, 2, FuseVariant::kHalf);
  util::Rng rng(1);
  const FuseConvStage stage(spec, rng);
  const Tensor input = random_tensor(Shape{1, 4, 8, 8}, 2);
  const Tensor out = stage.forward(input);
  EXPECT_EQ(out.shape(), (Shape{1, 4, 4, 4}));
}

TEST(FuseConvForward, RowBranchMatchesDirectGroupedConv) {
  const FuseConvSpec spec = make_spec(4, 6, 3, 1, FuseVariant::kFull);
  util::Rng rng(3);
  const FuseConvStage stage(spec, rng);
  const Tensor input = random_tensor(Shape{1, 4, 6, 6}, 4);
  const Tensor out = stage.forward(input);

  Conv2dParams p;
  p.pad_w = 1;
  p.groups = 4;
  const Tensor row_expected =
      nn::conv2d(input, stage.row_weights(), nullptr, p);
  // First C output channels are the row branch.
  for (std::int64_t c = 0; c < 4; ++c) {
    for (std::int64_t i = 0; i < 36; ++i) {
      EXPECT_FLOAT_EQ(out[(c * 36) + i], row_expected[(c * 36) + i]);
    }
  }
}

TEST(FuseConvForward, HalfVariantSplitsChannels) {
  // With identity-like kernels, the row branch must see channels [0, C/2)
  // and the column branch channels [C/2, C).
  const FuseConvSpec spec = make_spec(4, 5, 3, 1, FuseVariant::kHalf);
  FuseConvStage stage(spec);
  // Row kernel picks the center tap -> identity; same for column kernel.
  for (std::int64_t c = 0; c < 2; ++c) {
    stage.row_weights().at(c, 0, 0, 1) = 1.0F;
    stage.col_weights().at(c, 0, 1, 0) = 1.0F;
  }
  Tensor input(Shape{1, 4, 5, 5});
  input.fill_iota();
  const Tensor out = stage.forward(input);
  EXPECT_EQ(out.shape(), (Shape{1, 4, 5, 5}));
  // Row branch outputs == input channels 0,1; col branch == channels 2,3.
  for (std::int64_t c = 0; c < 4; ++c) {
    for (std::int64_t i = 0; i < 25; ++i) {
      EXPECT_FLOAT_EQ(out[c * 25 + i], input[c * 25 + i]);
    }
  }
}

TEST(FuseConvForward, SeparableKernelRecoversDepthwiseByComposition) {
  // A rank-1 KxK kernel w = col * row^T factorizes exactly: running the
  // row filter then the column filter on the result reproduces the KxK
  // depthwise convolution. This is the representational argument for why
  // FuSeConv can substitute for depthwise filtering.
  util::Rng rng(7);
  const std::int64_t channels = 3, hw = 9, k = 3;
  const Tensor input = random_tensor(Shape{1, channels, hw, hw}, 8);
  const Tensor row_w = random_tensor(Shape{channels, 1, 1, k}, 9);
  const Tensor col_w = random_tensor(Shape{channels, 1, k, 1}, 10);

  // Depthwise with the rank-1 kernel, 'same' padding.
  Tensor dw_w(Shape{channels, 1, k, k});
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t y = 0; y < k; ++y) {
      for (std::int64_t x = 0; x < k; ++x) {
        dw_w.at(c, 0, y, x) = col_w.at(c, 0, y, 0) * row_w.at(c, 0, 0, x);
      }
    }
  }
  Conv2dParams dw_p;
  dw_p.pad_h = 1;
  dw_p.pad_w = 1;
  dw_p.groups = channels;
  const Tensor dw_out = nn::conv2d(input, dw_w, nullptr, dw_p);

  // Row then column 1-D convolutions composed.
  Conv2dParams row_p;
  row_p.pad_w = 1;
  row_p.groups = channels;
  Conv2dParams col_p;
  col_p.pad_h = 1;
  col_p.groups = channels;
  const Tensor composed = nn::conv2d(
      nn::conv2d(input, row_w, nullptr, row_p), col_w, nullptr, col_p);

  EXPECT_TRUE(allclose(composed, dw_out, 1e-4F, 1e-5F))
      << "max diff " << tensor::max_abs_diff(composed, dw_out);
}

TEST(FuseConvForward, WrongChannelCountThrows) {
  const FuseConvSpec spec = make_spec(4, 8, 3, 1, FuseVariant::kFull);
  const FuseConvStage stage(spec);
  EXPECT_THROW(stage.forward(Tensor(Shape{1, 3, 8, 8})), util::Error);
}

TEST(FuseConvForward, WrongSpatialSizeThrows) {
  const FuseConvSpec spec = make_spec(4, 8, 3, 1, FuseVariant::kFull);
  const FuseConvStage stage(spec);
  EXPECT_THROW(stage.forward(Tensor(Shape{1, 4, 7, 8})), util::Error);
}

// --- slice_channels ---------------------------------------------------------

TEST(SliceChannels, ExtractsContiguousRange) {
  Tensor input(Shape{2, 4, 2, 2});
  input.fill_iota();
  const Tensor slice = slice_channels(input, 1, 2);
  EXPECT_EQ(slice.shape(), (Shape{2, 2, 2, 2}));
  EXPECT_EQ(slice.at(0, 0, 0, 0), input.at(0, 1, 0, 0));
  EXPECT_EQ(slice.at(1, 1, 1, 1), input.at(1, 2, 1, 1));
}

TEST(SliceChannels, OutOfRangeThrows) {
  const Tensor input(Shape{1, 4, 2, 2});
  EXPECT_THROW(slice_channels(input, 3, 2), util::Error);
}

// --- lowering ---------------------------------------------------------------

TEST(LowerFuseStage, ProducesRowAndColLayers) {
  const FuseConvSpec spec = make_spec(32, 28, 3, 1, FuseVariant::kHalf);
  const auto layers = lower_fuse_stage("blk", spec, nn::Activation::kRelu6,
                                       /*fuse_slot=*/5);
  ASSERT_EQ(layers.size(), 2u);
  EXPECT_EQ(layers[0].kind, nn::OpKind::kFuseRowConv);
  EXPECT_EQ(layers[1].kind, nn::OpKind::kFuseColConv);
  EXPECT_EQ(layers[0].out_c, 16);
  EXPECT_EQ(layers[1].out_c, 16);
  EXPECT_EQ(layers[0].fuse_slot, 5);
  EXPECT_EQ(layers[1].fuse_slot, 5);
}

TEST(LowerFuseStage, MacsMatchSpecFormula) {
  for (FuseVariant variant : {FuseVariant::kFull, FuseVariant::kHalf}) {
    const FuseConvSpec spec = make_spec(32, 28, 5, 2, variant);
    const auto layers =
        lower_fuse_stage("blk", spec, nn::Activation::kNone);
    EXPECT_EQ(layers[0].macs() + layers[1].macs(), spec.stage_macs());
  }
}

TEST(LowerFuseStage, ParamsMatchSpecFormula) {
  const FuseConvSpec spec = make_spec(32, 28, 3, 1, FuseVariant::kFull);
  const auto layers = lower_fuse_stage("blk", spec, nn::Activation::kNone);
  // Strip batchnorm params (2 per channel per layer) for the raw formula.
  const std::uint64_t weights = layers[0].params() - 2 * 32 +
                                layers[1].params() - 2 * 32;
  EXPECT_EQ(weights, spec.stage_params());
}

// --- variants ---------------------------------------------------------------

TEST(FuseVariantEnum, DivisorAndNames) {
  EXPECT_EQ(fuse_divisor(FuseVariant::kFull), 1);
  EXPECT_EQ(fuse_divisor(FuseVariant::kHalf), 2);
  EXPECT_EQ(fuse_variant_name(FuseVariant::kFull), "Full");
  EXPECT_EQ(fuse_variant_name(FuseVariant::kHalf), "Half");
}

TEST(FuseConvForward, StageEqualsGroupedConvPairOnRandomSpecs) {
  util::Rng rng(1003);
  for (int trial = 0; trial < 12; ++trial) {
    FuseConvSpec spec;
    spec.kernel = 1 + 2 * (1 + static_cast<std::int64_t>(rng.uniform_index(2)));
    spec.pad = spec.kernel / 2;
    spec.stride = 1 + static_cast<std::int64_t>(rng.uniform_index(2));
    spec.channels = 2 * (1 + static_cast<std::int64_t>(rng.uniform_index(4)));
    spec.in_h = spec.kernel + static_cast<std::int64_t>(rng.uniform_index(6));
    spec.in_w = spec.kernel + static_cast<std::int64_t>(rng.uniform_index(6));
    spec.variant =
        rng.uniform_index(2) == 0 ? FuseVariant::kFull : FuseVariant::kHalf;
    util::Rng weights_rng(2000 + static_cast<std::uint64_t>(trial));
    const FuseConvStage stage(spec, weights_rng);
    Tensor input(Shape{1, spec.channels, spec.in_h, spec.in_w});
    input.fill_uniform(rng, -1.0F, 1.0F);
    const Tensor out = stage.forward(input);

    // Contract: output geometry matches the spec.
    EXPECT_EQ(out.shape(),
              (Shape{1, spec.out_channels(), spec.out_h(), spec.out_w()}))
        << "trial " << trial;

    // Row branch equals the grouped conv run independently.
    const std::int64_t branch_c = spec.branch_channels();
    const Tensor row_in = spec.variant == FuseVariant::kFull
                              ? input
                              : slice_channels(input, 0, branch_c);
    Conv2dParams p;
    p.stride_h = spec.stride;
    p.stride_w = spec.stride;
    p.pad_w = spec.pad;
    p.groups = branch_c;
    const Tensor row_expected =
        nn::conv2d(row_in, stage.row_weights(), nullptr, p);
    for (std::int64_t i = 0; i < row_expected.num_elements(); ++i) {
      EXPECT_FLOAT_EQ(out[i], row_expected[i]) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace fuse::core
