// Tests for the cycle-level PE-grid simulator that a generator cannot
// state: hand-computed results and fold counts, error paths, engine
// selection, PE-busy patterns and heatmaps. That both engines match the
// nn reference, the plan fold and each other bit for bit on random
// shapes is tests/test_differential.cpp's chain.
#include <gtest/gtest.h>

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

TEST(SimMatmul, MatchesReferenceAcrossFolds) {
  SystolicArraySim sim(square_array(4));
  const Tensor a = random_tensor(Shape{13, 7}, 3);
  const Tensor b = random_tensor(Shape{7, 10}, 4);
  const SimResult result = sim.matmul(a, b);
  EXPECT_EQ(result.folds, 4u * 3);  // ceil(13/4) x ceil(10/4)
  EXPECT_TRUE(allclose(result.output, nn::matmul(a, b), 1e-4F, 1e-5F));
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
  EXPECT_EQ(fallback_cycles, 32 * matmul_latency(16, 3, 1, cfg).cycles);
  EXPECT_GT(fallback_cycles, 5 * broadcast.cycles);
}

}  // namespace
}  // namespace fuse::systolic

// NOTE: appended suite — engine selection. The engines' bit-exactness
// contract (docs/simulator.md) is checked with memcmp by
// tests/test_differential.cpp; here the constructor's engine choice.
#include <cstring>

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
  const Tensor a = random_tensor(Shape{5, 3}, 71);
  const Tensor b = random_tensor(Shape{3, 6}, 72);
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

}  // namespace
}  // namespace fuse::systolic
