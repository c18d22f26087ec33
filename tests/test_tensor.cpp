// Unit tests for the tensor module: Shape, Tensor, fp16 emulation, im2col.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "tensor/half.hpp"
#include "tensor/im2col.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace fuse::tensor {
namespace {

// --- Shape ------------------------------------------------------------------

TEST(Shape, RankAndDims) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(2), 4);
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.dim(-3), 2);
}

TEST(Shape, NumElements) {
  EXPECT_EQ((Shape{2, 3, 4}).num_elements(), 24);
  EXPECT_EQ((Shape{5}).num_elements(), 5);
  EXPECT_EQ(Shape().num_elements(), 1);
  EXPECT_EQ((Shape{3, 0, 2}).num_elements(), 0);
}

TEST(Shape, RowMajorStrides) {
  const auto strides = (Shape{2, 3, 4}).strides();
  ASSERT_EQ(strides.size(), 3u);
  EXPECT_EQ(strides[0], 12);
  EXPECT_EQ(strides[1], 4);
  EXPECT_EQ(strides[2], 1);
}

TEST(Shape, Equality) {
  EXPECT_EQ((Shape{1, 2}), (Shape{1, 2}));
  EXPECT_NE((Shape{1, 2}), (Shape{2, 1}));
}

TEST(Shape, NegativeExtentThrows) {
  EXPECT_THROW(Shape({2, -1}), util::Error);
}

TEST(Shape, OutOfRangeAxisThrows) {
  const Shape s{2, 3};
  EXPECT_THROW(s.dim(2), util::Error);
  EXPECT_THROW(s.dim(-3), util::Error);
}

TEST(Shape, ToString) {
  EXPECT_EQ((Shape{1, 32, 112, 112}).to_string(), "[1, 32, 112, 112]");
}

// --- Tensor -----------------------------------------------------------------

TEST(Tensor, ZeroInitialized) {
  const Tensor t(Shape{2, 3});
  for (std::int64_t i = 0; i < t.num_elements(); ++i) {
    EXPECT_EQ(t[i], 0.0F);
  }
}

TEST(Tensor, ExplicitValuesRoundTrip) {
  const Tensor t(Shape{2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0F);
  EXPECT_EQ(t.at(0, 1), 2.0F);
  EXPECT_EQ(t.at(1, 0), 3.0F);
  EXPECT_EQ(t.at(1, 1), 4.0F);
}

TEST(Tensor, ValueCountMismatchThrows) {
  EXPECT_THROW(Tensor(Shape{2, 2}, {1, 2, 3}), util::Error);
}

TEST(Tensor, Rank4AccessorRowMajor) {
  Tensor t(Shape{2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 9.0F;
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0F);
}

TEST(Tensor, FillAndSum) {
  Tensor t(Shape{4, 4});
  t.fill(0.5F);
  EXPECT_DOUBLE_EQ(t.sum(), 8.0);
}

TEST(Tensor, FillIota) {
  Tensor t(Shape{3});
  t.fill_iota(10.0F);
  EXPECT_EQ(t.at(0), 10.0F);
  EXPECT_EQ(t.at(2), 12.0F);
}

TEST(Tensor, AbsMax) {
  const Tensor t(Shape{3}, {-7.0F, 2.0F, 5.0F});
  EXPECT_EQ(t.abs_max(), 7.0F);
}

TEST(Tensor, FillUniformRespectsBounds) {
  util::Rng rng(3);
  Tensor t(Shape{1000});
  t.fill_uniform(rng, -2.0F, 3.0F);
  for (std::int64_t i = 0; i < t.num_elements(); ++i) {
    EXPECT_GE(t[i], -2.0F);
    EXPECT_LT(t[i], 3.0F);
  }
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t(Shape{2, 3});
  t.fill_iota();
  const Tensor r = t.reshaped(Shape{3, 2});
  EXPECT_EQ(r.at(2, 1), 5.0F);
}

TEST(Tensor, ReshapeCountMismatchThrows) {
  const Tensor t(Shape{2, 3});
  EXPECT_THROW(t.reshaped(Shape{7}), util::Error);
}

TEST(Tensor, SummaryTruncates) {
  Tensor t(Shape{100});
  const std::string s = t.summary(4);
  EXPECT_NE(s.find("..."), std::string::npos);
}

// --- allclose / max_abs_diff ------------------------------------------------

TEST(AllClose, ExactMatch) {
  const Tensor a(Shape{2}, {1.0F, 2.0F});
  EXPECT_TRUE(allclose(a, a));
}

TEST(AllClose, WithinTolerance) {
  const Tensor a(Shape{1}, {1.0F});
  const Tensor b(Shape{1}, {1.0F + 1e-7F});
  EXPECT_TRUE(allclose(a, b));
}

TEST(AllClose, OutsideTolerance) {
  const Tensor a(Shape{1}, {1.0F});
  const Tensor b(Shape{1}, {1.01F});
  EXPECT_FALSE(allclose(a, b));
}

TEST(AllClose, ShapeMismatchIsFalse) {
  EXPECT_FALSE(allclose(Tensor(Shape{2}), Tensor(Shape{3})));
}

TEST(AllClose, NanIsNeverClose) {
  const Tensor a(Shape{1}, {std::numeric_limits<float>::quiet_NaN()});
  EXPECT_FALSE(allclose(a, a));
}

TEST(MaxAbsDiff, ReportsLargestDeviation) {
  const Tensor a(Shape{3}, {1, 2, 3});
  const Tensor b(Shape{3}, {1, 4, 3});
  EXPECT_EQ(max_abs_diff(a, b), 2.0F);
}

// --- half -------------------------------------------------------------------

TEST(Half, ExactSmallIntegersRoundTrip) {
  for (float v : {0.0F, 1.0F, -1.0F, 2.0F, 1024.0F, -2048.0F}) {
    EXPECT_EQ(quantize_half(v), v) << v;
  }
}

TEST(Half, SignedZeroPreserved) {
  EXPECT_EQ(float_to_half(-0.0F), 0x8000);
  EXPECT_EQ(float_to_half(0.0F), 0x0000);
}

TEST(Half, KnownBitPatterns) {
  EXPECT_EQ(float_to_half(1.0F), 0x3C00);
  EXPECT_EQ(float_to_half(-2.0F), 0xC000);
  EXPECT_EQ(float_to_half(0.5F), 0x3800);
  EXPECT_EQ(half_to_float(0x3C00), 1.0F);
  EXPECT_EQ(half_to_float(0x7C00), std::numeric_limits<float>::infinity());
}

TEST(Half, OverflowBecomesInfinity) {
  EXPECT_EQ(float_to_half(70000.0F), 0x7C00);
  EXPECT_EQ(float_to_half(-70000.0F), 0xFC00);
}

TEST(Half, MaxFiniteValue) {
  EXPECT_EQ(half_to_float(0x7BFF), 65504.0F);
  EXPECT_EQ(float_to_half(65504.0F), 0x7BFF);
}

TEST(Half, NanSurvives) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(quantize_half(nan)));
}

TEST(Half, DenormalsRepresented) {
  // Smallest positive half denormal is 2^-24.
  const float tiny = std::ldexp(1.0F, -24);
  EXPECT_EQ(quantize_half(tiny), tiny);
  // Half of that rounds to zero (round-to-nearest-even).
  EXPECT_EQ(quantize_half(std::ldexp(1.0F, -26)), 0.0F);
}

TEST(Half, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10; ties go to even
  // (1.0).
  const float halfway = 1.0F + std::ldexp(1.0F, -11);
  EXPECT_EQ(quantize_half(halfway), 1.0F);
  // Slightly above halfway rounds up.
  const float above = 1.0F + std::ldexp(1.0F, -11) + std::ldexp(1.0F, -13);
  EXPECT_EQ(quantize_half(above), 1.0F + std::ldexp(1.0F, -10));
}

TEST(Half, RelativeErrorBounded) {
  util::Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const float v = static_cast<float>(rng.uniform(-1000.0, 1000.0));
    const float q = quantize_half(v);
    // Half has 11 significand bits: relative error <= 2^-11.
    EXPECT_LE(std::fabs(q - v), std::fabs(v) * std::ldexp(1.0F, -11) + 1e-8F)
        << v;
  }
}

TEST(Half, QuantizeTensor) {
  Tensor t(Shape{3}, {1.0F, 1.0001F, 100000.0F});
  const Tensor q = quantize_half(t);
  EXPECT_EQ(q.at(0), 1.0F);
  EXPECT_EQ(q.at(1), 1.0F);  // below half precision
  EXPECT_TRUE(std::isinf(q.at(2)));
  EXPECT_EQ(t.at(1), 1.0001F);  // original untouched
}

// --- conv_out_dim -----------------------------------------------------------

TEST(ConvOutDim, BasicCases) {
  EXPECT_EQ(conv_out_dim(5, 3, 1, 0), 3);
  EXPECT_EQ(conv_out_dim(5, 3, 1, 1), 5);   // 'same'
  EXPECT_EQ(conv_out_dim(224, 3, 2, 1), 112);
  EXPECT_EQ(conv_out_dim(7, 7, 1, 0), 1);
  EXPECT_EQ(conv_out_dim(5, 3, 1, 0, 2), 1);  // dilation 2: span 5
}

TEST(ConvOutDim, KernelLargerThanPaddedInputThrows) {
  EXPECT_THROW(conv_out_dim(2, 5, 1, 0), util::Error);
}

TEST(ConvOutDim, InvalidArgsThrow) {
  EXPECT_THROW(conv_out_dim(0, 3, 1, 0), util::Error);
  EXPECT_THROW(conv_out_dim(5, 3, 0, 0), util::Error);
  EXPECT_THROW(conv_out_dim(5, 3, 1, -1), util::Error);
}

// --- im2col -----------------------------------------------------------------

TEST(Im2col, SingleChannelIdentityKernel) {
  // 1x1 kernel: patches are just the input values, one per row.
  Tensor input(Shape{1, 2, 3});
  input.fill_iota();
  const Tensor patches = im2col(input, 1, 1, 1, 1, 0, 0);
  EXPECT_EQ(patches.shape(), (Shape{6, 1}));
  for (std::int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(patches.at(i, 0), static_cast<float>(i));
  }
}

TEST(Im2col, PatchContentsMatchReceptiveField) {
  // 3x3 input, 2x2 kernel, no padding: 4 patches.
  Tensor input(Shape{1, 3, 3});
  input.fill_iota();  // 0..8 row-major
  const Tensor patches = im2col(input, 2, 2, 1, 1, 0, 0);
  EXPECT_EQ(patches.shape(), (Shape{4, 4}));
  // Patch at output (0,0) covers inputs {0,1,3,4}.
  EXPECT_EQ(patches.at(0, 0), 0.0F);
  EXPECT_EQ(patches.at(0, 1), 1.0F);
  EXPECT_EQ(patches.at(0, 2), 3.0F);
  EXPECT_EQ(patches.at(0, 3), 4.0F);
  // Patch at output (1,1) covers inputs {4,5,7,8}.
  EXPECT_EQ(patches.at(3, 0), 4.0F);
  EXPECT_EQ(patches.at(3, 3), 8.0F);
}

TEST(Im2col, PaddingReadsZero) {
  Tensor input(Shape{1, 2, 2});
  input.fill(1.0F);
  const Tensor patches = im2col(input, 3, 3, 1, 1, 1, 1);
  EXPECT_EQ(patches.shape(), (Shape{4, 9}));
  // Top-left output patch: corners outside the input are zero.
  EXPECT_EQ(patches.at(0, 0), 0.0F);  // (-1,-1)
  EXPECT_EQ(patches.at(0, 4), 1.0F);  // (0,0)
}

TEST(Im2col, StrideSkipsPositions) {
  Tensor input(Shape{1, 5, 5});
  input.fill_iota();
  const Tensor patches = im2col(input, 3, 3, 2, 2, 0, 0);
  EXPECT_EQ(patches.shape(), (Shape{4, 9}));
  // Second patch starts at input column 2.
  EXPECT_EQ(patches.at(1, 0), 2.0F);
}

TEST(Im2col, MultiChannelTapOrdering) {
  // Channel-major ordering within a row: [C, Kh, Kw] flattened.
  Tensor input(Shape{2, 2, 2});
  input.fill_iota();  // ch0: 0..3, ch1: 4..7
  const Tensor patches = im2col(input, 2, 2, 1, 1, 0, 0);
  EXPECT_EQ(patches.shape(), (Shape{1, 8}));
  EXPECT_EQ(patches.at(0, 0), 0.0F);
  EXPECT_EQ(patches.at(0, 3), 3.0F);
  EXPECT_EQ(patches.at(0, 4), 4.0F);
  EXPECT_EQ(patches.at(0, 7), 7.0F);
}

TEST(Im2col, DepthwiseLoweringHasSingleColumnShape) {
  // The paper's Fig. 2(c): per-channel im2col of a KxK depthwise layer
  // yields a [positions, K*K] matrix multiplied by a K*K x 1 filter —
  // a single output column.
  Tensor plane(Shape{8, 8});
  plane.fill_iota();
  const Tensor patches = im2col_plane(plane, 3, 3, 1, 1, 1, 1);
  EXPECT_EQ(patches.shape(), (Shape{64, 9}));
}

TEST(Im2col, RejectsWrongRank) {
  EXPECT_THROW(im2col(Tensor(Shape{2, 2}), 1, 1, 1, 1, 0, 0), util::Error);
  EXPECT_THROW(im2col_plane(Tensor(Shape{1, 2, 2}), 1, 1, 1, 1, 0, 0),
               util::Error);
}

TEST(Half, QuantizationIsMonotone) {
  util::Rng rng(1006);
  // Values beyond +-65504 saturate to +-inf, which is still monotone.
  float prev_x = -std::numeric_limits<float>::infinity();
  float prev_q = -std::numeric_limits<float>::infinity();
  std::vector<float> xs;
  for (int i = 0; i < 3000; ++i) {
    xs.push_back(static_cast<float>(rng.uniform(-70000.0, 70000.0)));
  }
  std::sort(xs.begin(), xs.end());
  for (float x : xs) {
    const float q = quantize_half(x);
    EXPECT_GE(q, prev_q) << "x=" << x << " after " << prev_x;
    prev_q = q;
    prev_x = x;
  }
}

}  // namespace
}  // namespace fuse::tensor
