// Tests for the cycle-level PE-grid simulator: functional results must
// match the fuse::nn reference, and cycle counts must match the analytic
// model exactly (non-overlapped mode).
#include <gtest/gtest.h>

#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "systolic/cycle_model.hpp"
#include "systolic/sim.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace fuse::systolic {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::allclose;

ArrayConfig array_no_overlap(std::int64_t size) {
  ArrayConfig cfg = square_array(size);
  cfg.overlap_fold_drain = false;
  return cfg;
}

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  t.fill_uniform(rng, -1.0F, 1.0F);
  return t;
}

// --- output-stationary matmul -----------------------------------------------

TEST(SimMatmul, HandComputed2x2) {
  SystolicArraySim sim(square_array(4));
  const Tensor a(Shape{2, 2}, {1, 2, 3, 4});
  const Tensor b(Shape{2, 2}, {5, 6, 7, 8});
  const SimResult result = sim.matmul(a, b);
  EXPECT_EQ(result.output.at(0, 0), 19.0F);
  EXPECT_EQ(result.output.at(1, 1), 50.0F);
}

TEST(SimMatmul, MatchesReferenceWithinOneFold) {
  SystolicArraySim sim(square_array(8));
  const Tensor a = random_tensor(Shape{8, 16}, 1);
  const Tensor b = random_tensor(Shape{16, 8}, 2);
  const SimResult result = sim.matmul(a, b);
  EXPECT_TRUE(allclose(result.output, nn::matmul(a, b), 1e-4F, 1e-5F));
}

TEST(SimMatmul, MatchesReferenceAcrossFolds) {
  SystolicArraySim sim(square_array(4));
  const Tensor a = random_tensor(Shape{13, 7}, 3);
  const Tensor b = random_tensor(Shape{7, 10}, 4);
  const SimResult result = sim.matmul(a, b);
  EXPECT_EQ(result.folds, 4u * 3);  // ceil(13/4) x ceil(10/4)
  EXPECT_TRUE(allclose(result.output, nn::matmul(a, b), 1e-4F, 1e-5F));
}

TEST(SimMatmul, CyclesMatchAnalyticSingleFold) {
  const ArrayConfig cfg = array_no_overlap(8);
  SystolicArraySim sim(cfg);
  const Tensor a = random_tensor(Shape{8, 5}, 5);
  const Tensor b = random_tensor(Shape{5, 8}, 6);
  const SimResult result = sim.matmul(a, b);
  EXPECT_EQ(result.cycles, matmul_latency(8, 5, 8, cfg).cycles);
}

TEST(SimMatmul, MacOpsMatchAnalytic) {
  const ArrayConfig cfg = array_no_overlap(4);
  SystolicArraySim sim(cfg);
  const Tensor a = random_tensor(Shape{9, 6}, 7);
  const Tensor b = random_tensor(Shape{6, 5}, 8);
  const SimResult result = sim.matmul(a, b);
  EXPECT_EQ(result.mac_ops, matmul_latency(9, 6, 5, cfg).mac_ops);
  EXPECT_EQ(result.mac_ops, 9ULL * 6 * 5);
}

TEST(SimMatmul, InnerDimMismatchThrows) {
  SystolicArraySim sim(square_array(4));
  EXPECT_THROW(sim.matmul(Tensor(Shape{2, 3}), Tensor(Shape{4, 2})),
               util::Error);
}

struct SimCase {
  std::int64_t m, t, n, array;
};

class SimMatmulSweep : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimMatmulSweep, ResultAndCyclesMatch) {
  const SimCase c = GetParam();
  const ArrayConfig cfg = array_no_overlap(c.array);
  SystolicArraySim sim(cfg);
  const Tensor a = random_tensor(Shape{c.m, c.t}, 100 + c.m);
  const Tensor b = random_tensor(Shape{c.t, c.n}, 200 + c.n);
  const SimResult result = sim.matmul(a, b);
  EXPECT_TRUE(allclose(result.output, nn::matmul(a, b), 1e-3F, 1e-4F));
  const LatencyEstimate analytic = matmul_latency(c.m, c.t, c.n, cfg);
  EXPECT_EQ(result.cycles, analytic.cycles);
  EXPECT_EQ(result.folds, analytic.folds);
  EXPECT_EQ(result.mac_ops, analytic.mac_ops);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimMatmulSweep,
    ::testing::Values(SimCase{1, 1, 1, 4}, SimCase{4, 4, 4, 4},
                      SimCase{5, 3, 9, 4}, SimCase{16, 2, 16, 8},
                      SimCase{7, 11, 13, 8}, SimCase{3, 20, 2, 2},
                      SimCase{12, 1, 12, 8}, SimCase{9, 9, 9, 3}));

// --- broadcast 1-D convolution ----------------------------------------------

/// Reference: valid 1-D convolution of each line with its kernel.
Tensor conv1d_reference(const Tensor& lines, const Tensor& kernels) {
  const std::int64_t num_lines = lines.shape().dim(0);
  const std::int64_t width = lines.shape().dim(1);
  const std::int64_t taps = kernels.shape().dim(1);
  Tensor out(Shape{num_lines, width - taps + 1});
  for (std::int64_t l = 0; l < num_lines; ++l) {
    for (std::int64_t o = 0; o < width - taps + 1; ++o) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < taps; ++k) {
        acc += static_cast<double>(kernels.at(l, k)) *
               static_cast<double>(lines.at(l, o + k));
      }
      out.at(l, o) = static_cast<float>(acc);
    }
  }
  return out;
}

TEST(SimConv1d, HandComputedTwoTaps) {
  SystolicArraySim sim(square_array(4));
  const Tensor lines(Shape{1, 4}, {1, 2, 3, 4});
  const Tensor kernels(Shape{1, 2}, {1, 10});
  const SimResult result = sim.conv1d_broadcast(lines, kernels);
  // out[o] = x[o] + 10*x[o+1]
  EXPECT_EQ(result.output.shape(), (Shape{1, 3}));
  EXPECT_EQ(result.output.at(0, 0), 21.0F);
  EXPECT_EQ(result.output.at(0, 1), 32.0F);
  EXPECT_EQ(result.output.at(0, 2), 43.0F);
}

TEST(SimConv1d, PerLineKernelsAreIndependent) {
  SystolicArraySim sim(square_array(4));
  const Tensor lines(Shape{2, 3}, {1, 1, 1, 2, 2, 2});
  const Tensor kernels(Shape{2, 2}, {1, 0, 0, 1});
  const SimResult result = sim.conv1d_broadcast(lines, kernels);
  EXPECT_EQ(result.output.at(0, 0), 1.0F);
  EXPECT_EQ(result.output.at(1, 0), 2.0F);
}

TEST(SimConv1d, MatchesReferenceAcrossFolds) {
  SystolicArraySim sim(square_array(4));
  const Tensor lines = random_tensor(Shape{10, 11}, 9);
  const Tensor kernels = random_tensor(Shape{10, 3}, 10);
  const SimResult result = sim.conv1d_broadcast(lines, kernels);
  EXPECT_TRUE(allclose(result.output, conv1d_reference(lines, kernels),
                       1e-4F, 1e-5F));
  // lines fold: ceil(10/4)=3; output fold: ceil(9/4)=3.
  EXPECT_EQ(result.folds, 9u);
}

TEST(SimConv1d, CyclesMatchAnalytic) {
  const ArrayConfig cfg = array_no_overlap(4);
  SystolicArraySim sim(cfg);
  const Tensor lines = random_tensor(Shape{10, 11}, 11);
  const Tensor kernels = random_tensor(Shape{10, 3}, 12);
  const SimResult result = sim.conv1d_broadcast(lines, kernels);
  const LatencyEstimate analytic = fuse1d_latency(10, 9, 3, cfg);
  EXPECT_EQ(result.cycles, analytic.cycles);
  EXPECT_EQ(result.mac_ops, analytic.mac_ops);
}

TEST(SimConv1d, RequiresBroadcastLinks) {
  SystolicArraySim sim(square_array(4, /*broadcast=*/false));
  EXPECT_THROW(
      sim.conv1d_broadcast(Tensor(Shape{1, 4}), Tensor(Shape{1, 2})),
      util::Error);
}

TEST(SimConv1d, LineShorterThanKernelThrows) {
  SystolicArraySim sim(square_array(4));
  EXPECT_THROW(
      sim.conv1d_broadcast(Tensor(Shape{1, 2}), Tensor(Shape{1, 3})),
      util::Error);
}

TEST(SimConv1d, ZeroTapKernelThrows) {
  // Zero taps would turn [2, 5] lines into a [2, 6] output, wider than
  // its lines, charged cycles for no MACs.
  SystolicArraySim sim(square_array(4));
  const Tensor lines(Shape{2, 5});
  const Tensor kernels(Shape{2, 0});
  EXPECT_THROW(sim.conv1d_broadcast_fast(lines, kernels), util::Error);
  EXPECT_THROW(sim.conv1d_broadcast_reference(lines, kernels), util::Error);
}

class SimConv1dSweep : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimConv1dSweep, ResultAndCyclesMatch) {
  const SimCase c = GetParam();  // m=lines, t=width, n=taps
  const ArrayConfig cfg = array_no_overlap(c.array);
  SystolicArraySim sim(cfg);
  const Tensor lines = random_tensor(Shape{c.m, c.t}, 300 + c.m);
  const Tensor kernels = random_tensor(Shape{c.m, c.n}, 400 + c.n);
  const SimResult result = sim.conv1d_broadcast(lines, kernels);
  EXPECT_TRUE(allclose(result.output, conv1d_reference(lines, kernels),
                       1e-3F, 1e-4F));
  const LatencyEstimate analytic =
      fuse1d_latency(c.m, c.t - c.n + 1, c.n, cfg);
  EXPECT_EQ(result.cycles, analytic.cycles);
  EXPECT_EQ(result.folds, analytic.folds);
  EXPECT_EQ(result.mac_ops, analytic.mac_ops);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimConv1dSweep,
    ::testing::Values(SimCase{1, 3, 3, 4},   // single line, single output
                      SimCase{4, 8, 3, 4},   // exact fit
                      SimCase{5, 9, 2, 4},   // ragged folds
                      SimCase{16, 12, 5, 8}, // K=5 (MobileNet-V3 blocks)
                      SimCase{3, 30, 3, 8},  // long lines
                      SimCase{20, 6, 3, 16}  // more lines than rows... wide
                      ));

// --- dataflow comparison ----------------------------------------------------

TEST(DataflowComparison, BroadcastBeatsSingleColumnOnSameWork) {
  // Run the same 1-D convolutions both ways and compare measured cycles:
  // the proposed dataflow is the win the whole paper is about.
  const ArrayConfig cfg = array_no_overlap(16);
  SystolicArraySim sim(cfg);
  const Tensor lines = random_tensor(Shape{32, 18}, 13);
  const Tensor kernels = random_tensor(Shape{32, 3}, 14);
  const SimResult broadcast = sim.conv1d_broadcast(lines, kernels);

  // Single-column fallback: each line is a [16, 3] x [3, 1] matmul.
  std::uint64_t fallback_cycles = 0;
  for (std::int64_t l = 0; l < 32; ++l) {
    Tensor patches(Shape{16, 3});
    for (std::int64_t o = 0; o < 16; ++o) {
      for (std::int64_t k = 0; k < 3; ++k) {
        patches.at(o, k) = lines.at(l, o + k);
      }
    }
    Tensor filter(Shape{3, 1});
    for (std::int64_t k = 0; k < 3; ++k) {
      filter.at(k, 0) = kernels.at(l, k);
    }
    const SimResult one = sim.matmul(patches, filter);
    fallback_cycles += one.cycles;
    // Same numeric answer either way.
    for (std::int64_t o = 0; o < 16; ++o) {
      EXPECT_NEAR(one.output.at(o, 0), broadcast.output.at(l, o), 1e-4F);
    }
  }
  EXPECT_EQ(fallback_cycles,
            fuse1d_no_broadcast_latency(32, 16, 3, cfg).cycles);
  EXPECT_GT(fallback_cycles, 5 * broadcast.cycles);
}

}  // namespace
}  // namespace fuse::systolic

// NOTE: appended suite — fast-vs-reference engine bit-exactness (the
// contract documented in docs/simulator.md). Everything here compares with
// memcmp, not allclose: the fast engine must reproduce the per-cycle
// sweep's results to the last bit, for every dataflow, the broadcast path,
// strided plans, and ragged fold shapes.
#include <cstring>
#include <tuple>

#include "nn/layer.hpp"
#include "systolic/mapping.hpp"
#include "util/telemetry.hpp"

namespace fuse::systolic {
namespace {

using tensor::Shape;
using tensor::Tensor;

::testing::AssertionResult bits_equal(const Tensor& actual,
                                      const Tensor& expected) {
  if (!(actual.shape() == expected.shape())) {
    return ::testing::AssertionFailure()
           << "shape " << actual.shape().to_string() << " vs "
           << expected.shape().to_string();
  }
  if (std::memcmp(actual.data(), expected.data(),
                  static_cast<std::size_t>(actual.num_elements()) *
                      sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << "tensor bits differ";
  }
  return ::testing::AssertionSuccess();
}

void expect_bit_exact(const SimResult& fast, const SimResult& reference) {
  EXPECT_EQ(fast.cycles, reference.cycles);
  EXPECT_EQ(fast.folds, reference.folds);
  EXPECT_EQ(fast.mac_ops, reference.mac_ops);
  EXPECT_TRUE(bits_equal(fast.output, reference.output));
  EXPECT_TRUE(bits_equal(fast.pe_busy, reference.pe_busy));
}

Tensor seeded_tensor(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  t.fill_uniform(rng, -1.0F, 1.0F);
  return t;
}

/// Sprinkles exact zeros (and keeps negatives) so the +-0.0 corners of the
/// bubble analysis in sim_fast.cpp actually get exercised.
Tensor zero_heavy_tensor(Shape shape, std::uint64_t seed) {
  Tensor t = seeded_tensor(std::move(shape), seed);
  for (std::int64_t i = 0; i < t.num_elements(); i += 3) {
    t[i] = 0.0F;
  }
  for (std::int64_t i = 1; i < t.num_elements(); i += 7) {
    t[i] = -0.0F;
  }
  return t;
}

/// Runs `check` once under each kernel ISA this machine can execute: the
/// fast engine's f64 kernels dispatch on it, so an AVX2 machine compares
/// the scalar fallback with the reference engine too. Restores the ISA
/// in force before the call.
template <typename Check>
void for_each_kernel_isa(const Check& check) {
  struct Restore {
    nn::KernelIsa saved = nn::kernel_isa();
    ~Restore() { nn::set_kernel_isa(saved); }
  } restore;
  for (const nn::KernelIsa isa :
       {nn::KernelIsa::kScalar, nn::KernelIsa::kAvx2}) {
    if (nn::kernel_isa_available(isa)) {
      SCOPED_TRACE(nn::kernel_isa_name(isa));
      nn::set_kernel_isa(isa);
      check();
    }
  }
}

SimResult run_pinned(SystolicArraySim& sim, Dataflow df, const Tensor& a,
                     const Tensor& b, bool fast) {
  switch (df) {
    case Dataflow::kOutputStationary:
      return fast ? sim.matmul_os_fast(a, b) : sim.matmul_os_reference(a, b);
    case Dataflow::kWeightStationary:
      return fast ? sim.matmul_ws_fast(a, b) : sim.matmul_ws_reference(a, b);
    case Dataflow::kInputStationary:
      return fast ? sim.matmul_is_fast(a, b) : sim.matmul_is_reference(a, b);
  }
  FUSE_CHECK(false) << "unknown dataflow";
  return {};
}

TEST(SimBackendApi, ParseAndName) {
  SimBackend backend = SimBackend::kReference;
  EXPECT_TRUE(parse_sim_backend("fast", &backend));
  EXPECT_EQ(backend, SimBackend::kFast);
  EXPECT_TRUE(parse_sim_backend("reference", &backend));
  EXPECT_EQ(backend, SimBackend::kReference);
  EXPECT_TRUE(parse_sim_backend("ref", &backend));
  EXPECT_EQ(backend, SimBackend::kReference);
  EXPECT_FALSE(parse_sim_backend("turbo", &backend));
  EXPECT_FALSE(parse_sim_backend("", &backend));
  EXPECT_STREQ(sim_backend_name(SimBackend::kFast), "fast");
  EXPECT_STREQ(sim_backend_name(SimBackend::kReference), "reference");
}

TEST(SimBackendApi, ConstructorSelectsEngine) {
  const ArrayConfig cfg = square_array(4);
  SystolicArraySim by_default(cfg);
  SystolicArraySim reference(cfg, SimBackend::kReference);
  const Tensor a = seeded_tensor(Shape{5, 3}, 71);
  const Tensor b = seeded_tensor(Shape{3, 6}, 72);
  expect_bit_exact(by_default.matmul(a, b), reference.matmul(a, b));
  if (!util::telemetry_enabled()) {
    GTEST_SKIP() << "dispatch counters need FUSE_TELEMETRY";
  }
  // The dispatch counters show which engine each call ran: the default
  // is fast, and the constructor argument overrides it.
  util::Counter& fast = util::metrics().counter("sim.dispatch.fast");
  util::Counter& ref = util::metrics().counter("sim.dispatch.reference");
  const std::uint64_t fast_before = fast.value();
  const std::uint64_t ref_before = ref.value();
  (void)reference.matmul(a, b);
  EXPECT_EQ(ref.value(), ref_before + 1);
  EXPECT_EQ(fast.value(), fast_before);
  (void)by_default.matmul(a, b);
  EXPECT_EQ(fast.value(), fast_before + 1);
}

// Differential grid: dataflow x ragged fold shapes (array sizes that do
// NOT divide m/t/n, so edge tiles and multi-fold reduction are hit) on
// square and rectangular grids.
struct DiffCase {
  std::int64_t m, t, n, rows, cols;
};

class SimBackendDiff
    : public ::testing::TestWithParam<std::tuple<Dataflow, DiffCase>> {};

TEST_P(SimBackendDiff, FastMatchesReferenceBitExactly) {
  const auto [df, c] = GetParam();
  ArrayConfig cfg;
  cfg.rows = c.rows;
  cfg.cols = c.cols;
  cfg.dataflow = df;
  SystolicArraySim sim(cfg);
  const Tensor a = seeded_tensor(Shape{c.m, c.t}, 500 + c.m);
  const Tensor b = seeded_tensor(Shape{c.t, c.n}, 600 + c.n);
  const Tensor az = zero_heavy_tensor(Shape{c.m, c.t}, 700 + c.m);
  const Tensor bz = zero_heavy_tensor(Shape{c.t, c.n}, 800 + c.n);
  for_each_kernel_isa([&] {
    expect_bit_exact(run_pinned(sim, df, a, b, /*fast=*/true),
                     run_pinned(sim, df, a, b, /*fast=*/false));
    expect_bit_exact(run_pinned(sim, df, az, bz, /*fast=*/true),
                     run_pinned(sim, df, az, bz, /*fast=*/false));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimBackendDiff,
    ::testing::Combine(
        ::testing::Values(Dataflow::kOutputStationary,
                          Dataflow::kWeightStationary,
                          Dataflow::kInputStationary),
        ::testing::Values(DiffCase{1, 1, 1, 4, 4},    // degenerate
                          DiffCase{4, 4, 4, 4, 4},    // exact fit
                          DiffCase{13, 7, 10, 4, 4},  // ragged folds
                          DiffCase{5, 17, 3, 4, 4},   // deep reduction
                          DiffCase{11, 6, 13, 3, 9},  // rectangular
                          DiffCase{11, 6, 13, 9, 3},  // rectangular, tall
                          DiffCase{9, 9, 9, 8, 8},
                          // The executor's degenerate operands: a
                          // depthwise channel / no-bus FuSe line (n = 1,
                          // many row folds) and an FC row (m = 1), each
                          // with depth below and above the array size.
                          DiffCase{37, 3, 1, 4, 4},
                          DiffCase{37, 9, 1, 4, 4},
                          DiffCase{29, 25, 1, 3, 5},
                          DiffCase{1, 3, 13, 4, 4},
                          DiffCase{1, 9, 13, 4, 4},
                          DiffCase{1, 11, 7, 5, 3})));

class SimBackendConvDiff : public ::testing::TestWithParam<DiffCase> {};

TEST_P(SimBackendConvDiff, FastMatchesReferenceBitExactly) {
  const DiffCase c = GetParam();  // m=lines, t=width, n=taps
  ArrayConfig cfg;
  cfg.rows = c.rows;
  cfg.cols = c.cols;
  SystolicArraySim sim(cfg);
  const Tensor lines = zero_heavy_tensor(Shape{c.m, c.t}, 900 + c.m);
  const Tensor kernels = zero_heavy_tensor(Shape{c.m, c.n}, 950 + c.n);
  for_each_kernel_isa([&] {
    expect_bit_exact(sim.conv1d_broadcast_fast(lines, kernels),
                     sim.conv1d_broadcast_reference(lines, kernels));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimBackendConvDiff,
    ::testing::Values(DiffCase{1, 3, 3, 4, 4},    // single line/output
                      DiffCase{10, 11, 3, 4, 4},  // ragged folds
                      DiffCase{16, 12, 5, 8, 8},  // K=5
                      DiffCase{7, 9, 3, 3, 9},    // rectangular
                      DiffCase{20, 30, 3, 9, 3}));

// Strided layers exercise the fast path through whole lowered plans (the
// FuSe dense-compute-then-discard stride handling included). run_plan
// discards the numeric output, so this compares counters and pe_busy.
TEST(SimBackendDiffPlans, StridedPlansMatchAcrossBackends) {
  const nn::LayerDesc layers[] = {
      nn::make_fuse_row("fuse_s2", 8, 14, 14, 3, /*stride=*/2, 1),
      nn::make_fuse_col("fuse_col_s2", 8, 14, 14, 3, /*stride=*/2, 1),
      nn::make_depthwise("dw_s2", 8, 14, 14, 3, /*stride=*/2, 1),
      nn::make_conv("conv_s2", 3, 14, 14, 8, 3, /*stride=*/2, 1),
  };
  for (const nn::LayerDesc& layer : layers) {
    for (const bool broadcast : {true, false}) {
      ArrayConfig cfg = square_array(8, broadcast);
      const MappingPlan plan = lower(layer, cfg);
      const SimResult reference =
          SystolicArraySim(cfg, SimBackend::kReference).run_plan(plan);
      const SimResult fast =
          SystolicArraySim(cfg, SimBackend::kFast).run_plan(plan);
      EXPECT_EQ(fast.cycles, reference.cycles) << layer.name;
      EXPECT_EQ(fast.folds, reference.folds) << layer.name;
      EXPECT_EQ(fast.mac_ops, reference.mac_ops) << layer.name;
      EXPECT_TRUE(bits_equal(fast.pe_busy, reference.pe_busy)) << layer.name;
    }
  }
}

}  // namespace
}  // namespace fuse::systolic

// NOTE: appended suite — cycle-level WS/IS dataflow simulation.
namespace fuse::systolic {
namespace {

ArrayConfig df_array(Dataflow df, std::int64_t size) {
  ArrayConfig cfg = square_array(size);
  cfg.dataflow = df;
  cfg.overlap_fold_drain = false;
  return cfg;
}

TEST(SimWeightStationary, HandComputed2x2) {
  SystolicArraySim sim(df_array(Dataflow::kWeightStationary, 4));
  const Tensor a(Shape{2, 2}, {1, 2, 3, 4});
  const Tensor b(Shape{2, 2}, {5, 6, 7, 8});
  const SimResult result = sim.matmul(a, b);
  EXPECT_EQ(result.output.at(0, 0), 19.0F);
  EXPECT_EQ(result.output.at(1, 1), 50.0F);
}

TEST(SimWeightStationary, AccumulatesAcrossReductionFolds) {
  // depth 9 on a 4-row array: 3 reduction folds must sum correctly.
  SystolicArraySim sim(df_array(Dataflow::kWeightStationary, 4));
  const Tensor a = [] {
    util::Rng rng(31);
    Tensor t(Shape{5, 9});
    t.fill_uniform(rng, -1.0F, 1.0F);
    return t;
  }();
  const Tensor b = [] {
    util::Rng rng(32);
    Tensor t(Shape{9, 6});
    t.fill_uniform(rng, -1.0F, 1.0F);
    return t;
  }();
  const SimResult result = sim.matmul(a, b);
  EXPECT_TRUE(allclose(result.output, nn::matmul(a, b), 1e-4F, 1e-5F));
  EXPECT_EQ(result.folds, 3u * 2);
}

TEST(SimInputStationary, HandComputed2x2) {
  SystolicArraySim sim(df_array(Dataflow::kInputStationary, 4));
  const Tensor a(Shape{2, 2}, {1, 2, 3, 4});
  const Tensor b(Shape{2, 2}, {5, 6, 7, 8});
  const SimResult result = sim.matmul(a, b);
  EXPECT_EQ(result.output.at(0, 0), 19.0F);
  EXPECT_EQ(result.output.at(1, 0), 43.0F);
}

class SimDataflowSweep : public ::testing::TestWithParam<
                             std::tuple<Dataflow, int, int, int, int>> {};

TEST_P(SimDataflowSweep, ResultAndCyclesMatchAnalytic) {
  const auto [df, m, t, n, size] = GetParam();
  const ArrayConfig cfg = df_array(df, size);
  SystolicArraySim sim(cfg);
  util::Rng rng(static_cast<std::uint64_t>(m * 100 + t * 10 + n));
  Tensor a(Shape{m, t});
  a.fill_uniform(rng, -1.0F, 1.0F);
  Tensor b(Shape{t, n});
  b.fill_uniform(rng, -1.0F, 1.0F);
  const SimResult result = sim.matmul(a, b);
  EXPECT_TRUE(allclose(result.output, nn::matmul(a, b), 1e-3F, 1e-4F));
  const LatencyEstimate analytic = matmul_latency(m, t, n, cfg);
  EXPECT_EQ(result.cycles, analytic.cycles);
  EXPECT_EQ(result.folds, analytic.folds);
  EXPECT_EQ(result.mac_ops, analytic.mac_ops);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimDataflowSweep,
    ::testing::Combine(
        ::testing::Values(Dataflow::kWeightStationary,
                          Dataflow::kInputStationary),
        ::testing::Values(1, 5, 9),    // M
        ::testing::Values(3, 8, 13),   // T
        ::testing::Values(1, 4, 10),   // N
        ::testing::Values(4, 8)));     // array


// --- PE activity heatmaps -------------------------------------------------------

TEST(PeBusy, SumsEqualMacOps) {
  SystolicArraySim sim(square_array(8));
  const Tensor a = random_tensor(Shape{13, 7}, 41);
  const Tensor b = random_tensor(Shape{7, 10}, 42);
  const SimResult r = sim.matmul(a, b);
  EXPECT_EQ(static_cast<std::uint64_t>(r.pe_busy.sum() + 0.5), r.mac_ops);
}

TEST(PeBusy, SingleColumnMatmulLightsOneColumn) {
  // The depthwise pathology, at PE granularity.
  SystolicArraySim sim(square_array(8));
  const Tensor a = random_tensor(Shape{8, 9}, 43);
  const Tensor b = random_tensor(Shape{9, 1}, 44);
  const SimResult r = sim.matmul(a, b);
  for (std::int64_t i = 0; i < 8; ++i) {
    EXPECT_GT(r.pe_busy.at(i, 0), 0.0F);
    for (std::int64_t j = 1; j < 8; ++j) {
      EXPECT_EQ(r.pe_busy.at(i, j), 0.0F);
    }
  }
}

TEST(PeBusy, BroadcastConvFillsTheGrid) {
  SystolicArraySim sim(square_array(8));
  const Tensor lines = random_tensor(Shape{8, 10}, 45);
  const Tensor kernels = random_tensor(Shape{8, 3}, 46);
  const SimResult r = sim.conv1d_broadcast(lines, kernels);
  for (std::int64_t i = 0; i < 8; ++i) {
    for (std::int64_t j = 0; j < 8; ++j) {
      EXPECT_GT(r.pe_busy.at(i, j), 0.0F) << i << "," << j;
    }
  }
  EXPECT_EQ(static_cast<std::uint64_t>(r.pe_busy.sum() + 0.5), r.mac_ops);
}

TEST(PeBusy, WeightStationaryTracksToo) {
  SystolicArraySim sim(df_array(Dataflow::kWeightStationary, 4));
  const Tensor a = random_tensor(Shape{6, 4}, 47);
  const Tensor b = random_tensor(Shape{4, 4}, 48);
  const SimResult r = sim.matmul(a, b);
  EXPECT_EQ(static_cast<std::uint64_t>(r.pe_busy.sum() + 0.5), r.mac_ops);
}

TEST(Heatmap, RendersIdleAndScaledCells) {
  Tensor busy(Shape{2, 3});
  busy.at(0, 0) = 9.0F;
  busy.at(1, 2) = 1.0F;
  const std::string map = render_pe_heatmap(busy);
  EXPECT_EQ(map, "9..\n..1\n");
}

TEST(Heatmap, AllIdleRendersDots) {
  const std::string map = render_pe_heatmap(Tensor(Shape{1, 4}));
  EXPECT_EQ(map, "....\n");
}

TEST(Heatmap, WrongRankThrows) {
  EXPECT_THROW(render_pe_heatmap(Tensor(Shape{4})), util::Error);
}


TEST(RectangularArrays, SimMatchesAnalyticOnNonSquareGrids) {
  for (const auto& [rows, cols] :
       {std::pair<std::int64_t, std::int64_t>{3, 9}, {9, 3}, {2, 16}}) {
    ArrayConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.overlap_fold_drain = false;
    SystolicArraySim sim(cfg);
    const Tensor a = random_tensor(Shape{11, 6}, 61);
    const Tensor b = random_tensor(Shape{6, 13}, 62);
    const SimResult r = sim.matmul(a, b);
    EXPECT_TRUE(allclose(r.output, nn::matmul(a, b), 1e-3F, 1e-4F))
        << rows << "x" << cols;
    EXPECT_EQ(r.cycles, matmul_latency(11, 6, 13, cfg).cycles)
        << rows << "x" << cols;
    const Tensor lines = random_tensor(Shape{7, 9}, 63);
    const Tensor kernels = random_tensor(Shape{7, 3}, 64);
    const SimResult c = sim.conv1d_broadcast(lines, kernels);
    EXPECT_EQ(c.cycles, fuse1d_latency(7, 7, 3, cfg).cycles)
        << rows << "x" << cols;
  }
}

}  // namespace
}  // namespace fuse::systolic
