// Differential tests for the fast kernel backend (nn/kernels.hpp).
//
// The contract is ISA-dependent (docs/kernels.md):
//   * scalar ISA — BIT-EXACT with the reference operators across a grid
//     of geometries (memcmp over the output buffers), identical training
//     trajectory.
//   * avx2 ISA — float outputs ULP-BOUNDED against the reference (the
//     derived tolerance in util/ulp.hpp), int8 outputs and backward
//     passes still bit-exact.
// The forced-ISA grid below runs every operator under each ISA the
// machine supports; on hardware without AVX2 the avx2 leg is skipped
// with a logged note (never a failure), so the suite passes everywhere.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "nn/quantized.hpp"
#include "tensor/quantize.hpp"
#include "train/loss.hpp"
#include "train/module.hpp"
#include "train/optimizer.hpp"
#include "util/check.hpp"
#include "util/cpu_features.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"
#include "util/ulp.hpp"

namespace fuse::nn {
namespace {

using tensor::QuantizedTensor;
using tensor::Shape;
using tensor::Tensor;

Tensor random_tensor(Shape shape, std::uint64_t seed, float lo = -1.0F,
                     float hi = 1.0F) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  t.fill_uniform(rng, lo, hi);
  return t;
}

/// Restores backend + ISA state on scope exit so tests compose.
struct BackendGuard {
  KernelBackend saved_backend = kernel_backend();
  KernelIsa saved_isa = kernel_isa();
  ~BackendGuard() {
    set_kernel_backend(saved_backend);
    set_kernel_isa(saved_isa);
  }
};

/// The ISAs this machine can execute. When AVX2 is unavailable the grid
/// degrades to scalar-only with a note — a skip, not a failure.
std::vector<KernelIsa> available_isas() {
  std::vector<KernelIsa> isas{KernelIsa::kScalar};
  if (kernel_isa_available(KernelIsa::kAvx2)) {
    isas.push_back(KernelIsa::kAvx2);
  } else {
    static bool logged = false;
    if (!logged) {
      logged = true;
      std::printf(
          "note: avx2 kernels unavailable on this machine (cpu: %s); "
          "forced-ISA coverage runs scalar only\n",
          util::cpu_features().to_string().c_str());
    }
  }
  return isas;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.num_elements()) *
                         sizeof(float)) == 0;
}

/// ISA-aware comparison: scalar must be bit-exact; avx2 must land within
/// the documented tolerance for a length-k reduction of magnitude-bounded
/// operands. Reports the worst element on failure.
void expect_isa_close(const Tensor& ref, const Tensor& got, KernelIsa isa,
                      std::int64_t k, double magnitude,
                      const std::string& label) {
  ASSERT_EQ(ref.shape(), got.shape()) << label;
  if (isa == KernelIsa::kScalar) {
    EXPECT_TRUE(bit_equal(ref, got)) << label << " (scalar is bit-exact)";
    return;
  }
  const util::UlpTolerance tol = util::kernel_float_tolerance(k, magnitude);
  for (std::int64_t i = 0; i < ref.num_elements(); ++i) {
    if (!util::ulp_within(ref[i], got[i], tol)) {
      ADD_FAILURE() << label << " element " << i << ": ref=" << ref[i]
                    << " got=" << got[i]
                    << " ulp=" << util::ulp_distance(ref[i], got[i])
                    << " (max_ulps=" << tol.max_ulps
                    << ", abs_tol=" << tol.abs_tol << ", k=" << k << ")";
      return;
    }
  }
}

/// One conv geometry of the differential grid.
struct ConvCase {
  const char* name;
  std::int64_t batch, in_c, out_c, h, w, kh, kw;
  Conv2dParams params;
};

/// Reduction length of one output element (taps + the bias add).
std::int64_t conv_k(const ConvCase& c) {
  return (c.in_c / c.params.groups) * c.kh * c.kw + 1;
}

std::vector<ConvCase> conv_grid() {
  std::vector<ConvCase> cases;
  // Dense convolutions across stride/pad/dilation.
  cases.push_back({"dense_3x3", 2, 3, 8, 9, 11, 3, 3, {1, 1, 1, 1, 1, 1, 1}});
  cases.push_back({"dense_3x3_s2", 1, 4, 6, 13, 9, 3, 3,
                   {2, 2, 1, 1, 1, 1, 1}});
  cases.push_back({"dense_5x5_dilated", 1, 3, 5, 17, 15, 5, 5,
                   {1, 1, 4, 4, 2, 2, 1}});
  cases.push_back({"dense_asym", 1, 2, 7, 10, 14, 1, 5,
                   {1, 2, 0, 2, 1, 1, 1}});
  cases.push_back({"pointwise", 2, 6, 10, 7, 7, 1, 1, {1, 1, 0, 0, 1, 1, 1}});
  // 1x1 convs off the pointwise route: stride and padding keep im2col.
  cases.push_back({"pointwise_s2_im2col", 1, 17, 13, 9, 9, 1, 1,
                   {2, 2, 0, 0, 1, 1, 1}});
  cases.push_back({"pointwise_pad1_im2col", 1, 5, 7, 6, 6, 1, 1,
                   {1, 1, 1, 1, 1, 1, 1}});
  cases.push_back({"nopad", 1, 3, 4, 8, 8, 3, 3, {1, 1, 0, 0, 1, 1, 1}});
  // Grouped (non-depthwise).
  cases.push_back({"grouped_2", 1, 8, 12, 9, 9, 3, 3,
                   {1, 1, 1, 1, 1, 1, 2}});
  cases.push_back({"grouped_4_s2", 2, 8, 8, 11, 11, 3, 3,
                   {2, 2, 1, 1, 1, 1, 4}});
  // Depthwise 3x3 / 5x5 (the shape-specialized kernels).
  cases.push_back({"depthwise_3x3", 2, 6, 6, 12, 12, 3, 3,
                   {1, 1, 1, 1, 1, 1, 6}});
  cases.push_back({"depthwise_3x3_s2", 1, 5, 5, 13, 11, 3, 3,
                   {2, 2, 1, 1, 1, 1, 5}});
  cases.push_back({"depthwise_5x5", 1, 4, 4, 15, 15, 5, 5,
                   {1, 1, 2, 2, 1, 1, 4}});
  cases.push_back({"depthwise_dilated", 1, 3, 3, 16, 16, 3, 3,
                   {1, 1, 2, 2, 2, 2, 3}});
  cases.push_back({"depthwise_1x1", 1, 4, 4, 6, 6, 1, 1,
                   {1, 1, 0, 0, 1, 1, 4}});
  // FuSe row (1xK) and col (Kx1) branches.
  cases.push_back({"fuse_row_3", 2, 5, 5, 10, 12, 1, 3,
                   {1, 1, 0, 1, 1, 1, 5}});
  cases.push_back({"fuse_row_5_s2", 1, 4, 4, 9, 17, 1, 5,
                   {2, 2, 0, 2, 1, 1, 4}});
  cases.push_back({"fuse_col_3", 2, 5, 5, 12, 10, 3, 1,
                   {1, 1, 1, 0, 1, 1, 5}});
  cases.push_back({"fuse_col_5_s2", 1, 4, 4, 17, 9, 5, 1,
                   {2, 2, 2, 0, 1, 1, 4}});
  cases.push_back({"fuse_row_pad_bigger_than_line", 1, 2, 2, 5, 3, 1, 3,
                   {1, 1, 0, 2, 1, 1, 2}});
  return cases;
}

/// Tail / edge shapes: channel counts and widths that are NOT multiples
/// of the 8-lane vector width (1, 3, 7, 9, 17), kernel-sized inputs
/// (single-position outputs), and stride-2 odd geometries — the shapes
/// where a lane-count bug in the vector kernels would hide.
std::vector<ConvCase> tail_grid() {
  std::vector<ConvCase> cases;
  // Output widths straddling the vector width (interior narrower than,
  // equal to, and just past one vector).
  cases.push_back({"tail_dw_w1", 1, 3, 3, 5, 1, 3, 3, {1, 1, 1, 1, 1, 1, 3}});
  cases.push_back({"tail_dw_w3", 1, 7, 7, 6, 3, 3, 3, {1, 1, 1, 1, 1, 1, 7}});
  cases.push_back({"tail_dw_w7", 1, 9, 9, 7, 7, 3, 3, {1, 1, 1, 1, 1, 1, 9}});
  cases.push_back({"tail_dw_w9", 1, 17, 17, 5, 9, 3, 3,
                   {1, 1, 1, 1, 1, 1, 17}});
  cases.push_back({"tail_dw_w17", 2, 1, 1, 4, 17, 3, 3,
                   {1, 1, 1, 1, 1, 1, 1}});
  cases.push_back({"tail_fuse_row_w9", 1, 3, 3, 4, 9, 1, 5,
                   {1, 1, 0, 2, 1, 1, 3}});
  cases.push_back({"tail_fuse_row_w17", 1, 7, 7, 3, 17, 1, 3,
                   {1, 1, 0, 1, 1, 1, 7}});
  cases.push_back({"tail_fuse_col_w7", 1, 3, 3, 9, 7, 5, 1,
                   {1, 1, 2, 0, 1, 1, 3}});
  cases.push_back({"tail_fuse_col_w9", 1, 9, 9, 7, 9, 3, 1,
                   {1, 1, 1, 0, 1, 1, 9}});
  // Kernel-sized inputs: the whole output is one position (pure edge).
  cases.push_back({"tail_kernel_sized_dense", 1, 2, 3, 3, 3, 3, 3,
                   {1, 1, 0, 0, 1, 1, 1}});
  cases.push_back({"tail_kernel_sized_dw", 1, 4, 4, 5, 5, 5, 5,
                   {1, 1, 0, 0, 1, 1, 4}});
  // Stride-2 over odd extents (interior bounds land mid-vector; the
  // channelwise kernels fall back to scalar here — that fallback is
  // exactly what this exercises).
  cases.push_back({"tail_s2_odd_dense", 1, 3, 5, 7, 9, 3, 3,
                   {2, 2, 1, 1, 1, 1, 1}});
  cases.push_back({"tail_s2_odd_dw", 1, 7, 7, 9, 7, 3, 3,
                   {2, 2, 1, 1, 1, 1, 7}});
  // Output-channel tails for the GEMM path (panels of width < 8, == 8+1).
  cases.push_back({"tail_out_c1", 1, 3, 1, 6, 10, 3, 3,
                   {1, 1, 1, 1, 1, 1, 1}});
  cases.push_back({"tail_out_c7", 1, 3, 7, 6, 10, 3, 3,
                   {1, 1, 1, 1, 1, 1, 1}});
  cases.push_back({"tail_out_c9", 1, 4, 9, 6, 11, 3, 3,
                   {1, 1, 1, 1, 1, 1, 1}});
  cases.push_back({"tail_out_c17", 1, 4, 17, 5, 11, 3, 3,
                   {1, 1, 1, 1, 1, 1, 1}});
  // Pointwise route (W x X): position counts around the 16-wide panel
  // pair (1, 15, 49, 64, 81), output-channel counts around the 6-row
  // tile (1, 5, 7, 13), one input channel, batch 3, and an in_c whose
  // 64 KB position block holds only 16 positions.
  const Conv2dParams pw{1, 1, 0, 0, 1, 1, 1};
  cases.push_back({"tail_pw_pos1", 1, 17, 5, 1, 1, 1, 1, pw});
  cases.push_back({"tail_pw_pos15_in_c1", 3, 1, 7, 3, 5, 1, 1, pw});
  cases.push_back({"tail_pw_pos49", 1, 17, 13, 7, 7, 1, 1, pw});
  cases.push_back({"tail_pw_pos64_out_c1", 1, 17, 1, 8, 8, 1, 1, pw});
  cases.push_back({"tail_pw_pos81", 3, 17, 13, 9, 9, 1, 1, pw});
  cases.push_back({"tail_pw_blocks_of_16", 1, 520, 7, 9, 9, 1, 1, pw});
  return cases;
}

std::vector<ConvCase> all_conv_cases() {
  std::vector<ConvCase> cases = conv_grid();
  const std::vector<ConvCase> tails = tail_grid();
  cases.insert(cases.end(), tails.begin(), tails.end());
  return cases;
}

// ---------------------------------------------------------------------------
// Scalar-ISA bit-exactness (the original fast-vs-reference contract)
// ---------------------------------------------------------------------------

TEST(KernelsDifferential, ConvGridBitExact) {
  BackendGuard guard;
  set_kernel_isa(KernelIsa::kScalar);
  for (const ConvCase& c : all_conv_cases()) {
    const Tensor input =
        random_tensor(Shape{c.batch, c.in_c, c.h, c.w}, 11);
    const Tensor weight = random_tensor(
        Shape{c.out_c, c.in_c / c.params.groups, c.kh, c.kw}, 12);
    const Tensor bias = random_tensor(Shape{c.out_c}, 13);
    const Tensor ref = conv2d_reference(input, weight, &bias, c.params);
    const Tensor fast = kernels::conv2d_fast(input, weight, &bias, c.params);
    EXPECT_TRUE(bit_equal(ref, fast)) << c.name;
    // No-bias path too (the accumulator seed differs).
    EXPECT_TRUE(bit_equal(conv2d_reference(input, weight, nullptr, c.params),
                          kernels::conv2d_fast(input, weight, nullptr,
                                               c.params)))
        << c.name << " (no bias)";
    // And through the public dispatcher under each backend.
    set_kernel_backend(KernelBackend::kReference);
    const Tensor via_ref = conv2d(input, weight, &bias, c.params);
    set_kernel_backend(KernelBackend::kFast);
    const Tensor via_fast = conv2d(input, weight, &bias, c.params);
    EXPECT_TRUE(bit_equal(via_ref, via_fast)) << c.name << " (dispatch)";
  }
}

TEST(KernelsDifferential, MatmulBitExact) {
  BackendGuard guard;
  set_kernel_isa(KernelIsa::kScalar);
  for (const auto& [m, k, n] :
       std::vector<std::tuple<int, int, int>>{{1, 1, 1},
                                              {3, 5, 7},
                                              {8, 8, 8},
                                              {17, 33, 9},
                                              {64, 48, 96},
                                              {196, 576, 96}}) {
    const Tensor a = random_tensor(Shape{m, k}, 21);
    const Tensor b = random_tensor(Shape{k, n}, 22);
    EXPECT_TRUE(bit_equal(matmul_reference(a, b), kernels::matmul_fast(a, b)))
        << m << "x" << k << "x" << n;
  }
}

TEST(KernelsDifferential, MatmulWithZeroRowsBitExact) {
  // matmul_reference skips a_ik == 0 entries (im2col padding rows); the
  // fast kernel multiplies them. IEEE +-0 addition makes both identical.
  BackendGuard guard;
  set_kernel_isa(KernelIsa::kScalar);
  Tensor a = random_tensor(Shape{9, 12}, 23);
  for (std::int64_t i = 0; i < a.num_elements(); i += 3) {
    a[i] = 0.0F;
  }
  const Tensor b = random_tensor(Shape{12, 20}, 24);
  EXPECT_TRUE(bit_equal(matmul_reference(a, b), kernels::matmul_fast(a, b)));
}

TEST(KernelsDifferential, LinearBitExact) {
  BackendGuard guard;
  set_kernel_isa(KernelIsa::kScalar);
  for (const auto& [batch, in_f, out_f] :
       std::vector<std::tuple<int, int, int>>{
           {1, 1, 1}, {1, 9, 5}, {3, 17, 31}, {8, 1280, 1000},
           {1, 1280, 1000}, {1, 13, 17}, {5, 37, 9}}) {
    const Tensor input = random_tensor(Shape{batch, in_f}, 31);
    const Tensor weight = random_tensor(Shape{out_f, in_f}, 32);
    const Tensor bias = random_tensor(Shape{out_f}, 33);
    EXPECT_TRUE(bit_equal(linear_reference(input, weight, &bias),
                          kernels::linear_fast(input, weight, &bias)))
        << batch << "x" << in_f << "x" << out_f;
    EXPECT_TRUE(bit_equal(linear_reference(input, weight, nullptr),
                          kernels::linear_fast(input, weight, nullptr)))
        << batch << "x" << in_f << "x" << out_f << " (no bias)";
  }
}

// ---------------------------------------------------------------------------
// Forced-ISA differential grid (every op x every available ISA)
// ---------------------------------------------------------------------------

TEST(KernelsForcedIsa, ConvGridDifferential) {
  BackendGuard guard;
  for (const ConvCase& c : all_conv_cases()) {
    const Tensor input =
        random_tensor(Shape{c.batch, c.in_c, c.h, c.w}, 111);
    const Tensor weight = random_tensor(
        Shape{c.out_c, c.in_c / c.params.groups, c.kh, c.kw}, 112);
    const Tensor bias = random_tensor(Shape{c.out_c}, 113);
    // The reference oracle is ISA-independent; compute it once per case.
    const Tensor ref = conv2d_reference(input, weight, &bias, c.params);
    const Tensor ref_nb = conv2d_reference(input, weight, nullptr, c.params);
    const std::int64_t k = conv_k(c);
    // Operands are uniform in [-1, 1], so the absolute-product sum is at
    // most taps + |bias| <= k.
    const double magnitude = static_cast<double>(k);
    for (KernelIsa isa : available_isas()) {
      set_kernel_isa(isa);
      const std::string label =
          std::string(c.name) + " [" + kernel_isa_name(isa) + "]";
      expect_isa_close(ref,
                       kernels::conv2d_fast(input, weight, &bias, c.params),
                       isa, k, magnitude, label);
      expect_isa_close(
          ref_nb, kernels::conv2d_fast(input, weight, nullptr, c.params),
          isa, k, magnitude, label + " (no bias)");
    }
  }
}

TEST(KernelsForcedIsa, MatmulDifferential) {
  BackendGuard guard;
  for (const auto& [m, k, n] :
       std::vector<std::tuple<int, int, int>>{{1, 1, 1},
                                              {1, 7, 9},
                                              {3, 17, 7},
                                              {5, 3, 1},
                                              {9, 9, 17},
                                              {17, 33, 9},
                                              {64, 48, 96}}) {
    const Tensor a = random_tensor(Shape{m, k}, 121);
    const Tensor b = random_tensor(Shape{k, n}, 122);
    const Tensor ref = matmul_reference(a, b);
    for (KernelIsa isa : available_isas()) {
      set_kernel_isa(isa);
      expect_isa_close(ref, kernels::matmul_fast(a, b), isa, k,
                       static_cast<double>(k),
                       std::string("matmul ") + std::to_string(m) + "x" +
                           std::to_string(k) + "x" + std::to_string(n) +
                           " [" + kernel_isa_name(isa) + "]");
    }
  }
}

/// Operand families for the f64 kernels' bit-identity check, each with
/// +0.0 and -0.0 mixed in:
///   kRange  — uniform values in [-1, 1) and magnitudes near 1e-30 and
///             1e30, so products reach both ends of float's range;
///   kCancel — exact +-2^-40, +-1 and +-2^40: large products cancel
///             exactly often enough that which small terms survive
///             depends on the summation order, so a reordered sum shows
///             in the rounded float output.
enum class F64Operands { kRange, kCancel };

std::vector<float> f64_operand(F64Operands family, std::int64_t count,
                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(count));
  for (float& x : v) {
    const double u = rng.uniform(-1.0, 1.0);
    const double sign = u < 0.0 ? -1.0 : 1.0;
    switch (rng.uniform_index(5)) {
      case 0:
        x = 0.0F;
        break;
      case 1:
        x = -0.0F;
        break;
      case 2:
        x = static_cast<float>(family == F64Operands::kRange
                                   ? u * 1e-30
                                   : sign * std::ldexp(1.0, -40));
        break;
      case 3:
        x = static_cast<float>(family == F64Operands::kRange
                                   ? u * 1e30
                                   : sign * std::ldexp(1.0, 40));
        break;
      default:
        x = static_cast<float>(family == F64Operands::kRange ? u : sign);
        break;
    }
  }
  return v;
}

/// Runs `kernel` into a NaN-filled buffer under each available ISA and
/// expects every run to write all `count` outputs with the bits of the
/// first (the operands never produce a NaN).
template <typename Kernel>
void expect_isa_identical(std::int64_t count, const Kernel& kernel,
                          const std::string& label) {
  std::vector<float> first;
  for (KernelIsa isa : available_isas()) {
    set_kernel_isa(isa);
    std::vector<float> out(static_cast<std::size_t>(count),
                           std::numeric_limits<float>::quiet_NaN());
    kernel(out.data());
    for (const float x : out) {
      ASSERT_FALSE(std::isnan(x))
          << label << " [" << kernel_isa_name(isa) << "]: output unwritten";
    }
    if (first.empty()) {
      first = std::move(out);
    } else {
      EXPECT_EQ(std::memcmp(first.data(), out.data(),
                            first.size() * sizeof(float)),
                0)
          << label << " [" << kernel_isa_name(isa) << "] differs from scalar";
    }
  }
}

TEST(KernelsForcedIsa, F64KernelsBitIdenticalUnderEveryIsa) {
  BackendGuard guard;
  // m: every 6/4/2/1-row tail and the m = 1 route; n: the n = 1 route
  // and partial panels.
  std::vector<std::int64_t> ms;
  for (std::int64_t m = 1; m <= 13; ++m) {
    ms.push_back(m);
  }
  ms.insert(ms.end(), {37, 64, 65});
  std::uint64_t seed = 1000;
  for (const F64Operands family : {F64Operands::kRange, F64Operands::kCancel}) {
    const std::string tag =
        family == F64Operands::kRange ? " (range)" : " (cancel)";
    for (const std::int64_t m : ms) {
      for (const std::int64_t n : {1, 2, 7, 8, 9, 15, 16, 17}) {
        for (const std::int64_t k : {1, 3, 9, 64, 145}) {
          const std::vector<float> a = f64_operand(family, m * k, ++seed);
          const std::vector<float> b = f64_operand(family, k * n, ++seed);
          expect_isa_identical(
              m * n,
              [&](float* c) {
                kernels::gemm_f64(a.data(), b.data(), c, m, k, n);
              },
              "gemm_f64 " + std::to_string(m) + "x" + std::to_string(k) +
                  "x" + std::to_string(n) + tag);
        }
      }
    }
    // out_w: eight-wide steps and every tail length.
    constexpr std::int64_t kLines = 3;
    for (std::int64_t out_w = 1; out_w <= 17; ++out_w) {
      for (std::int64_t taps = 1; taps <= 7; ++taps) {
        const std::int64_t width = out_w + taps - 1;
        const std::vector<float> lines =
            f64_operand(family, kLines * width, ++seed);
        const std::vector<float> kernel_taps =
            f64_operand(family, kLines * taps, ++seed);
        expect_isa_identical(
            kLines * out_w,
            [&](float* out) {
              kernels::conv1d_lines_f64(lines.data(), kernel_taps.data(),
                                        out, kLines, width, taps);
            },
            "conv1d_lines_f64 out_w=" + std::to_string(out_w) +
                " taps=" + std::to_string(taps) + tag);
      }
    }
  }
}

TEST(KernelsForcedIsa, LinearDifferential) {
  BackendGuard guard;
  for (const auto& [batch, in_f, out_f] :
       std::vector<std::tuple<int, int, int>>{{1, 1, 1},
                                              {2, 7, 9},
                                              {3, 17, 33},
                                              {9, 40, 17},
                                              {8, 256, 100},
                                              {1, 1280, 1000},
                                              {1, 13, 17},
                                              {5, 37, 9}}) {
    const Tensor input = random_tensor(Shape{batch, in_f}, 131);
    const Tensor weight = random_tensor(Shape{out_f, in_f}, 132);
    const Tensor bias = random_tensor(Shape{out_f}, 133);
    const Tensor ref = linear_reference(input, weight, &bias);
    const Tensor ref_nb = linear_reference(input, weight, nullptr);
    const std::int64_t k = in_f + 1;
    for (KernelIsa isa : available_isas()) {
      set_kernel_isa(isa);
      const std::string label = std::string("linear ") +
                                std::to_string(batch) + "x" +
                                std::to_string(in_f) + "x" +
                                std::to_string(out_f) + " [" +
                                kernel_isa_name(isa) + "]";
      expect_isa_close(ref, kernels::linear_fast(input, weight, &bias), isa,
                       k, static_cast<double>(k), label);
      expect_isa_close(ref_nb, kernels::linear_fast(input, weight, nullptr),
                       isa, k, static_cast<double>(k), label + " (no bias)");
    }
  }
}

TEST(KernelsForcedIsa, Int8OperatorsBitExactUnderEveryIsa) {
  // int32 accumulation is order-insensitive: the int8 kernels must stay
  // bit-identical to the reference under EVERY ISA, vectorized or not.
  BackendGuard guard;
  for (const ConvCase& c : all_conv_cases()) {
    const Tensor input =
        random_tensor(Shape{c.batch, c.in_c, c.h, c.w}, 41, -2.0F, 3.0F);
    const Tensor weight = random_tensor(
        Shape{c.out_c, c.in_c / c.params.groups, c.kh, c.kw}, 42);
    const QuantizedTensor q_in = tensor::quantize_calibrated(input);
    const QuantizedTensor q_w =
        tensor::quantize_calibrated(weight, /*symmetric=*/true);
    const Tensor ref = conv2d_int8_reference(q_in, q_w, c.params);
    for (KernelIsa isa : available_isas()) {
      set_kernel_isa(isa);
      EXPECT_TRUE(bit_equal(ref, kernels::conv2d_int8_fast(q_in, q_w,
                                                           c.params)))
          << c.name << " [" << kernel_isa_name(isa) << "]";
    }
  }
  // Linear int8, including in_f tails around the 16-byte vector step.
  for (const auto& [batch, in_f, out_f] :
       std::vector<std::tuple<int, int, int>>{
           {1, 1, 1}, {2, 7, 9}, {2, 15, 5}, {2, 16, 5}, {2, 17, 5},
           {3, 40, 50}}) {
    const Tensor input =
        random_tensor(Shape{batch, in_f}, 43, -2.0F, 2.0F);
    const Tensor weight = random_tensor(Shape{out_f, in_f}, 44);
    const QuantizedTensor q_in = tensor::quantize_calibrated(input);
    const QuantizedTensor q_w =
        tensor::quantize_calibrated(weight, /*symmetric=*/true);
    const Tensor ref = linear_int8_reference(q_in, q_w);
    for (KernelIsa isa : available_isas()) {
      set_kernel_isa(isa);
      EXPECT_TRUE(bit_equal(ref, kernels::linear_int8_fast(q_in, q_w)))
          << batch << "x" << in_f << "x" << out_f << " ["
          << kernel_isa_name(isa) << "]";
    }
  }
}

TEST(KernelsForcedIsa, BackwardIsaIndependent) {
  // The backward passes are scalar-only by design: forcing the ISA must
  // not change a single gradient bit.
  BackendGuard guard;
  const ConvCase c{"backward_probe", 2, 4, 6, 9, 11, 3, 3,
                   {1, 1, 1, 1, 1, 1, 1}};
  const Tensor input = random_tensor(Shape{c.batch, c.in_c, c.h, c.w}, 141);
  const Tensor grad_seed = random_tensor(Shape{c.out_c}, 142);
  std::vector<Tensor> grads_per_isa;
  for (KernelIsa isa : available_isas()) {
    set_kernel_isa(isa);
    util::Rng rng(143);
    train::Conv2d layer("k", c.in_c, c.out_c, c.kh, c.kw, c.params, rng);
    const Tensor out = layer.forward(input);
    Tensor grad_out(out.shape());
    for (std::int64_t i = 0; i < grad_out.num_elements(); ++i) {
      grad_out[i] = grad_seed[i % grad_seed.num_elements()];
    }
    Tensor gi = layer.backward(grad_out);
    std::vector<train::Parameter*> params;
    layer.collect_params(params);
    grads_per_isa.push_back(std::move(gi));
    for (train::Parameter* p : params) {
      grads_per_isa.push_back(p->grad);
    }
  }
  const std::size_t per_isa = grads_per_isa.size() / available_isas().size();
  for (std::size_t i = per_isa; i < grads_per_isa.size(); ++i) {
    EXPECT_TRUE(bit_equal(grads_per_isa[i % per_isa], grads_per_isa[i]))
        << "gradient " << i % per_isa << " differs across ISAs";
  }
}

// ---------------------------------------------------------------------------
// Original backward / training-parity suites
// (pinned to the scalar ISA, where the bit-exact contract holds)
// ---------------------------------------------------------------------------

TEST(KernelsDifferential, BackwardBitExact) {
  BackendGuard guard;
  set_kernel_isa(KernelIsa::kScalar);
  for (const ConvCase& c : conv_grid()) {
    const Tensor input =
        random_tensor(Shape{c.batch, c.in_c, c.h, c.w}, 51);
    const Shape w_shape{c.out_c, c.in_c / c.params.groups, c.kh, c.kw};
    const Tensor weight = random_tensor(w_shape, 52);
    const Tensor probe = conv2d_reference(input, weight, nullptr, c.params);
    Tensor grad_out = random_tensor(probe.shape(), 53);
    // Exercise the go == 0 skip branches as well.
    for (std::int64_t i = 0; i < grad_out.num_elements(); i += 5) {
      grad_out[i] = 0.0F;
    }

    // Reference gradients (the loops in train/module.cpp, restated
    // through the reference backend of the module itself).
    util::Rng rng(54);
    train::Conv2d ref_layer("k", c.in_c, c.out_c, c.kh, c.kw, c.params, rng);
    util::Rng rng2(54);
    train::Conv2d fast_layer("k", c.in_c, c.out_c, c.kh, c.kw, c.params,
                             rng2);
    set_kernel_backend(KernelBackend::kReference);
    (void)ref_layer.forward(input);
    const Tensor gi_ref = ref_layer.backward(grad_out);
    set_kernel_backend(KernelBackend::kFast);
    (void)fast_layer.forward(input);
    const Tensor gi_fast = fast_layer.backward(grad_out);
    EXPECT_TRUE(bit_equal(gi_ref, gi_fast)) << c.name << " grad_input";

    std::vector<train::Parameter*> ref_params;
    std::vector<train::Parameter*> fast_params;
    ref_layer.collect_params(ref_params);
    fast_layer.collect_params(fast_params);
    ASSERT_EQ(ref_params.size(), fast_params.size());
    for (std::size_t i = 0; i < ref_params.size(); ++i) {
      EXPECT_TRUE(bit_equal(ref_params[i]->grad, fast_params[i]->grad))
          << c.name << " " << ref_params[i]->name;
    }
  }
}

/// Runs a few SGD steps of a small conv net and returns the loss
/// trajectory and final parameter tensors.
std::pair<std::vector<double>, std::vector<Tensor>> train_steps(
    KernelBackend backend) {
  BackendGuard guard;
  set_kernel_backend(backend);
  set_kernel_isa(KernelIsa::kScalar);
  util::Rng rng(71);
  train::Sequential model;
  model.add(std::make_unique<train::Conv2d>(
      "c1", 2, 4, 3, 3, Conv2dParams{1, 1, 1, 1, 1, 1, 1}, rng));
  model.add(std::make_unique<train::ActivationLayer>(Activation::kRelu));
  model.add(std::make_unique<train::Flatten>());
  model.add(std::make_unique<train::Linear>("fc", 4 * 6 * 6, 3, rng));

  std::vector<train::Parameter*> params;
  model.collect_params(params);
  train::Sgd sgd(params, /*lr=*/0.05, /*momentum=*/0.9);

  const Tensor inputs = random_tensor(Shape{4, 2, 6, 6}, 72);
  std::vector<std::int64_t> labels = {0, 2, 1, 0};
  std::vector<double> losses;
  for (int step = 0; step < 5; ++step) {
    for (train::Parameter* p : params) {
      p->zero_grad();
    }
    const Tensor logits = model.forward(inputs);
    const train::LossResult loss = train::softmax_cross_entropy(
        logits, labels);
    losses.push_back(loss.loss);
    model.backward(loss.grad_logits);
    sgd.step();
  }
  std::vector<Tensor> final_params;
  final_params.reserve(params.size());
  for (train::Parameter* p : params) {
    final_params.push_back(p->value);
  }
  return {losses, final_params};
}

TEST(KernelsTrainParity, LossTrajectoryIdentical) {
  const auto [ref_losses, ref_params] =
      train_steps(KernelBackend::kReference);
  const auto [fast_losses, fast_params] = train_steps(KernelBackend::kFast);
  ASSERT_EQ(ref_losses.size(), fast_losses.size());
  for (std::size_t i = 0; i < ref_losses.size(); ++i) {
    EXPECT_EQ(ref_losses[i], fast_losses[i]) << "step " << i;
  }
  ASSERT_EQ(ref_params.size(), fast_params.size());
  for (std::size_t i = 0; i < ref_params.size(); ++i) {
    EXPECT_TRUE(bit_equal(ref_params[i], fast_params[i])) << "param " << i;
  }
}

// ---------------------------------------------------------------------------
// Selection plumbing (backend + ISA parse / name / availability)
// ---------------------------------------------------------------------------

TEST(KernelsBackend, ParseAndName) {
  KernelBackend backend = KernelBackend::kReference;
  EXPECT_TRUE(parse_kernel_backend("fast", &backend));
  EXPECT_EQ(backend, KernelBackend::kFast);
  EXPECT_TRUE(parse_kernel_backend("reference", &backend));
  EXPECT_EQ(backend, KernelBackend::kReference);
  EXPECT_TRUE(parse_kernel_backend("ref", &backend));
  EXPECT_EQ(backend, KernelBackend::kReference);
  EXPECT_FALSE(parse_kernel_backend("warp-speed", &backend));
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kFast), "fast");
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kReference), "reference");
}

TEST(KernelsIsa, ParseAndName) {
  KernelIsa isa = KernelIsa::kAvx2;
  EXPECT_TRUE(parse_kernel_isa("scalar", &isa));
  EXPECT_EQ(isa, KernelIsa::kScalar);
  EXPECT_TRUE(parse_kernel_isa("avx2", &isa));
  EXPECT_EQ(isa, KernelIsa::kAvx2);
  EXPECT_FALSE(parse_kernel_isa("avx512", &isa));
  EXPECT_FALSE(parse_kernel_isa("", &isa));
  EXPECT_STREQ(kernel_isa_name(KernelIsa::kScalar), "scalar");
  EXPECT_STREQ(kernel_isa_name(KernelIsa::kAvx2), "avx2");
}

TEST(KernelsIsa, AutoResolvesToBestAvailable) {
  KernelIsa isa = KernelIsa::kScalar;
  ASSERT_TRUE(parse_kernel_isa("auto", &isa));
  EXPECT_TRUE(kernel_isa_available(isa));
  if (kernel_isa_available(KernelIsa::kAvx2)) {
    EXPECT_EQ(isa, KernelIsa::kAvx2);
  } else {
    EXPECT_EQ(isa, KernelIsa::kScalar);
  }
}

TEST(KernelsIsa, ScalarAlwaysAvailable) {
  EXPECT_TRUE(kernel_isa_available(KernelIsa::kScalar));
  BackendGuard guard;
  set_kernel_isa(KernelIsa::kScalar);
  EXPECT_EQ(kernel_isa(), KernelIsa::kScalar);
}

TEST(KernelsIsa, SettingUnavailableIsaThrows) {
  if (kernel_isa_available(KernelIsa::kAvx2)) {
    // On AVX2 machines the explicit set must succeed instead.
    BackendGuard guard;
    set_kernel_isa(KernelIsa::kAvx2);
    EXPECT_EQ(kernel_isa(), KernelIsa::kAvx2);
    return;
  }
  EXPECT_THROW(set_kernel_isa(KernelIsa::kAvx2), util::Error);
}

TEST(KernelsTelemetry, DispatchCountersAdvance) {
  BackendGuard guard;
  const Tensor a = random_tensor(Shape{4, 4}, 81);
  const Tensor b = random_tensor(Shape{4, 4}, 82);
  util::Counter& fast_count =
      util::metrics().counter("kernels.dispatch.fast");
  util::Counter& ref_count =
      util::metrics().counter("kernels.dispatch.reference");
  const std::uint64_t fast_before = fast_count.value();
  const std::uint64_t ref_before = ref_count.value();
  set_kernel_backend(KernelBackend::kFast);
  (void)matmul(a, b);
  set_kernel_backend(KernelBackend::kReference);
  (void)matmul(a, b);
#if FUSE_TELEMETRY
  EXPECT_EQ(fast_count.value(), fast_before + 1);
  EXPECT_EQ(ref_count.value(), ref_before + 1);
#else
  (void)fast_before;
  (void)ref_before;
#endif
}

TEST(KernelsHelpers, FlattenFiltersMatchesIm2colOrder) {
  const Tensor weight = random_tensor(Shape{3, 2, 2, 2}, 91);
  const Tensor flat = kernels::flatten_filters(weight);
  ASSERT_EQ(flat.shape(), (Shape{8, 3}));
  for (std::int64_t oc = 0; oc < 3; ++oc) {
    std::int64_t t = 0;
    for (std::int64_t ic = 0; ic < 2; ++ic) {
      for (std::int64_t ky = 0; ky < 2; ++ky) {
        for (std::int64_t kx = 0; kx < 2; ++kx) {
          EXPECT_EQ(flat.at(t, oc), weight.at(oc, ic, ky, kx));
          ++t;
        }
      }
    }
  }
  const Tensor mat = random_tensor(Shape{3, 5}, 92);
  const Tensor t = kernels::transpose_2d(mat);
  ASSERT_EQ(t.shape(), (Shape{5, 3}));
  for (std::int64_t r = 0; r < 3; ++r) {
    for (std::int64_t c = 0; c < 5; ++c) {
      EXPECT_EQ(t.at(c, r), mat.at(r, c));
    }
  }
}

}  // namespace
}  // namespace fuse::nn
