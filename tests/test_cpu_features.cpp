// Tests for the CPUID probe (util/cpu_features.hpp), the ULP comparison
// utility (util/ulp.hpp), and the runtime ISA selection rules built on
// them (nn/kernels.hpp). Feature bits are machine-dependent, so the
// probe tests check INVARIANTS (implications between features, probe
// stability, string formatting) rather than specific values; the ULP
// tests pin exact distances on hand-built bit patterns so the tolerance
// itself is under test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "nn/kernels.hpp"
#include "util/cpu_features.hpp"
#include "util/ulp.hpp"

namespace fuse {
namespace {

// ---------------------------------------------------------------------------
// CPUID probe
// ---------------------------------------------------------------------------

TEST(CpuFeatures, ImplicationChainHolds) {
  // Feature sets are supersets down the chain: avx512f => avx2 => fma
  // (as we gate it) => avx => sse2. A CPU/OS combination reporting a
  // higher tier without the lower ones means the probe mis-decoded
  // CPUID.
  const util::CpuFeatures& f = util::cpu_features();
  if (f.avx512f) {
    EXPECT_TRUE(f.avx2);
  }
  if (f.avx2) {
    EXPECT_TRUE(f.avx);
  }
  if (f.fma) {
    EXPECT_TRUE(f.avx);
  }
  if (f.avx) {
    EXPECT_TRUE(f.sse2);
  }
#if defined(__x86_64__)
  // x86-64 baseline mandates SSE2.
  EXPECT_TRUE(f.sse2);
#endif
}

TEST(CpuFeatures, ProbeIsStable) {
  // cpu_features() caches one probe; repeated calls must return the same
  // object with identical bits.
  const util::CpuFeatures& a = util::cpu_features();
  const util::CpuFeatures& b = util::cpu_features();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.avx2, b.avx2);
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(CpuFeatures, ToStringListsDetectedFlags) {
  const util::CpuFeatures& f = util::cpu_features();
  const std::string s = f.to_string();
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.find("avx2") != std::string::npos, f.avx2);
  EXPECT_EQ(s.find("fma") != std::string::npos, f.fma);
  if (!f.sse2 && !f.avx && !f.fma && !f.avx2 && !f.avx512f) {
    EXPECT_EQ(s, "none");
  }
}

TEST(CpuFeatures, AgreesWithCompilerOnThisBinary) {
  // If this very binary was compiled assuming AVX2 everywhere, running
  // here means the hardware has it — the probe must agree.
#if defined(__AVX2__)
  EXPECT_TRUE(util::cpu_features().avx2);
#endif
#if defined(__FMA__)
  EXPECT_TRUE(util::cpu_features().fma);
#endif
}

// ---------------------------------------------------------------------------
// ULP distance (the comparison the SIMD differential tests stand on)
// ---------------------------------------------------------------------------

float bits_to_float(std::uint32_t bits) {
  float f;
  static_assert(sizeof(f) == sizeof(bits));
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

TEST(Ulp, IdenticalValuesAreZeroApart) {
  EXPECT_EQ(util::ulp_distance(1.0F, 1.0F), 0);
  EXPECT_EQ(util::ulp_distance(-3.5F, -3.5F), 0);
  EXPECT_EQ(util::ulp_distance(0.0F, 0.0F), 0);
}

TEST(Ulp, SignedZerosAreZeroApart) {
  EXPECT_EQ(util::ulp_distance(0.0F, -0.0F), 0);
  EXPECT_EQ(util::ulp_distance(-0.0F, 0.0F), 0);
}

TEST(Ulp, AdjacentFloatsAreOneApart) {
  const float one = 1.0F;
  const float next = std::nextafterf(one, 2.0F);
  EXPECT_EQ(util::ulp_distance(one, next), 1);
  EXPECT_EQ(util::ulp_distance(next, one), 1);
  // Across an exponent boundary (2.0 -> just below 2.0).
  const float two = 2.0F;
  const float below = std::nextafterf(two, 0.0F);
  EXPECT_EQ(util::ulp_distance(two, below), 1);
  // Across zero: smallest positive and smallest negative denormal.
  const float tiny_pos = bits_to_float(0x00000001U);
  const float tiny_neg = bits_to_float(0x80000001U);
  EXPECT_EQ(util::ulp_distance(tiny_pos, tiny_neg), 2);
  EXPECT_EQ(util::ulp_distance(tiny_pos, 0.0F), 1);
  EXPECT_EQ(util::ulp_distance(tiny_neg, 0.0F), 1);
}

TEST(Ulp, DistanceIsExactInBitSpace) {
  // 1.0 has bit pattern 0x3f800000; 1.0 + 5 ulps is 0x3f800005.
  EXPECT_EQ(util::ulp_distance(bits_to_float(0x3f800000U),
                               bits_to_float(0x3f800005U)),
            5);
  // Sign-symmetric.
  EXPECT_EQ(util::ulp_distance(bits_to_float(0xbf800000U),
                               bits_to_float(0xbf800005U)),
            5);
}

TEST(Ulp, NanNeverComparesCloseUnlessBitIdentical) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(util::ulp_distance(nan, 1.0F),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(util::ulp_distance(1.0F, nan),
            std::numeric_limits<std::int64_t>::max());
  // Bit-identical NaNs are "equal" (a buffer memcpy'd through both paths
  // must compare clean).
  EXPECT_EQ(util::ulp_distance(nan, nan), 0);
  const util::UlpTolerance loose{1 << 20, 1e30};
  EXPECT_TRUE(util::ulp_within(nan, nan, loose));
  EXPECT_FALSE(util::ulp_within(nan, 1.0F, loose));
}

TEST(Ulp, WithinHonorsBothBranches) {
  const util::UlpTolerance tol{4, 1e-6};
  // Relative branch: 3 ulps apart.
  const float base = 100.0F;
  float three_up = base;
  for (int i = 0; i < 3; ++i) {
    three_up = std::nextafterf(three_up, 1e30F);
  }
  EXPECT_TRUE(util::ulp_within(base, three_up, tol));
  // Outside the relative branch but inside the absolute one: values near
  // zero after cancellation.
  EXPECT_TRUE(util::ulp_within(1e-7F, -1e-7F, tol));  // huge ulp, tiny abs
  // Outside both.
  EXPECT_FALSE(util::ulp_within(1.0F, 1.001F, tol));
}

TEST(Ulp, BitExactToleranceIsMemcmpEquality) {
  const util::UlpTolerance exact{};  // {0, 0.0}
  EXPECT_TRUE(util::ulp_within(2.5F, 2.5F, exact));
  EXPECT_TRUE(util::ulp_within(0.0F, -0.0F, exact));  // distance 0 by design
  EXPECT_FALSE(
      util::ulp_within(2.5F, std::nextafterf(2.5F, 3.0F), exact));
}

TEST(Ulp, KernelToleranceScalesWithReductionLength) {
  const util::UlpTolerance t1 = util::kernel_float_tolerance(1, 1.0);
  const util::UlpTolerance t64 = util::kernel_float_tolerance(64, 64.0);
  EXPECT_EQ(t1.max_ulps, 8 * 1 + 16);
  EXPECT_EQ(t64.max_ulps, 8 * 64 + 16);
  EXPECT_GT(t64.abs_tol, t1.abs_tol);
  // The documented formula: 4 * k * 2^-24 * magnitude.
  EXPECT_DOUBLE_EQ(t64.abs_tol, 4.0 * 64 * 0x1p-24 * 64.0);
  // Degenerate k: bit-exact.
  const util::UlpTolerance t0 = util::kernel_float_tolerance(0, 100.0);
  EXPECT_EQ(t0.max_ulps, 0);
  EXPECT_EQ(t0.abs_tol, 0.0);
}

TEST(Ulp, KernelToleranceRejectsGrossErrors) {
  // An indexing bug shifts the result by roughly one whole product —
  // orders of magnitude beyond both branches for any realistic k.
  const util::UlpTolerance tol = util::kernel_float_tolerance(512, 512.0);
  EXPECT_FALSE(util::ulp_within(1.0F, 1.5F, tol));
  EXPECT_FALSE(util::ulp_within(0.0F, 0.5F, tol));
}

// ---------------------------------------------------------------------------
// ISA availability rules built on the probe
// ---------------------------------------------------------------------------

TEST(KernelIsaAvailability, ScalarAlwaysAvx2OnlyWithHardware) {
  EXPECT_TRUE(nn::kernel_isa_available(nn::KernelIsa::kScalar));
  const util::CpuFeatures& f = util::cpu_features();
  if (!f.avx2 || !f.fma) {
    EXPECT_FALSE(nn::kernel_isa_available(nn::KernelIsa::kAvx2));
  }
  // The default choice always runs on an available ISA.
  EXPECT_TRUE(nn::kernel_isa_available(nn::KernelChoice{}.isa));
}

}  // namespace
}  // namespace fuse
