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

// NOTE: appended suite — the layout-native entries (matmul_wx,
// channelwise) against the passes they stand for, on both engines.
#include <cmath>
#include <limits>
#include <vector>

#include "nn/layer.hpp"
#include "systolic/mapping.hpp"
#include "tensor/im2col.hpp"

namespace fuse::systolic {
namespace {

Tensor transposed(const Tensor& t) {
  const std::int64_t rows = t.shape().dim(0);
  const std::int64_t cols = t.shape().dim(1);
  Tensor out(Shape{cols, rows});
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      out.at(c, r) = t.at(r, c);
    }
  }
  return out;
}

constexpr SimBackend kBackends[] = {SimBackend::kFast,
                                    SimBackend::kReference};

TEST(SimMatmulWx, IsTheTransposedPassOfMatmul) {
  // N and M at 1 and one below, at and one above the 4-wide array side,
  // plus two folds and a bit: every fold edge of the [M, N] walk.
  const std::int64_t sizes[] = {1, 3, 4, 5, 9};
  for (const Dataflow df : {Dataflow::kOutputStationary,
                            Dataflow::kWeightStationary,
                            Dataflow::kInputStationary}) {
    for (const SimBackend backend : kBackends) {
      SystolicArraySim sim(df_array(df, 4), backend);
      std::uint64_t seed = 300;
      for (const std::int64_t n : sizes) {
        for (const std::int64_t m : sizes) {
          for (const std::int64_t t : {1, 4, 7}) {
            SCOPED_TRACE(std::string(dataflow_name(df)) + " " +
                         sim_backend_name(backend) + " n=" +
                         std::to_string(n) + " m=" + std::to_string(m) +
                         " t=" + std::to_string(t));
            const Tensor w = random_tensor(Shape{n, t}, ++seed);
            const Tensor x = random_tensor(Shape{t, m}, ++seed);
            SimResult wx = sim.matmul_wx(w, x);
            const SimResult xw = sim.matmul(transposed(x), transposed(w));
            wx.output = transposed(wx.output);
            expect_bit_exact(wx, xw);
          }
        }
      }
    }
  }
}

TEST(SimMatmulWx, ReadsFilterBanksAndImagesInPlace) {
  // A [C_out, C_in, 1, 1] filter bank is its [C_out, C_in] matrix and a
  // [1, C_in, H, W] image its [C_in, H * W] matrix.
  SystolicArraySim sim(square_array(4));
  const Tensor w = random_tensor(Shape{5, 3, 1, 1}, 401);
  const Tensor x = random_tensor(Shape{1, 3, 2, 3}, 402);
  expect_bit_exact(sim.matmul_wx(w, x),
                   sim.matmul_wx(w.reshaped(Shape{5, 3}),
                                 x.reshaped(Shape{3, 6})));
  EXPECT_EQ(sim.matmul_wx(w, x).output.shape(), (Shape{5, 6}));
  // x's leading dims must multiply to w's 3 columns: [2, 9] does not.
  EXPECT_THROW(sim.matmul_wx(w, Tensor(Shape{2, 9})), util::Error);
  EXPECT_THROW(sim.matmul_wx(Tensor(Shape{5}), x), util::Error);
}

/// Per-pass totals: counters summed, busy counts summed exactly.
struct PassTotals {
  SimResult result;
  std::vector<std::uint64_t> busy;

  explicit PassTotals(const ArrayConfig& cfg)
      : busy(static_cast<std::size_t>(cfg.rows * cfg.cols), 0) {
    result.pe_busy = Tensor(Shape{cfg.rows, cfg.cols});
  }
  void add(const SimResult& pass) {
    result.cycles += pass.cycles;
    result.folds += pass.folds;
    result.mac_ops += pass.mac_ops;
    for (std::size_t i = 0; i < busy.size(); ++i) {
      busy[i] += static_cast<std::uint64_t>(
          pass.pe_busy[static_cast<std::int64_t>(i)]);
      result.pe_busy[static_cast<std::int64_t>(i)] =
          static_cast<float>(busy[i]);
    }
  }
};

/// The loop channelwise replaces, on `sim`'s engine: one single-column
/// im2col matmul per depthwise channel (§III-B), or a FuSe row layer's
/// broadcast lines (every mapped input row one zero-padded line, every
/// stride-th output kept).
SimResult per_pass_loop(SystolicArraySim& sim, const nn::LayerDesc& layer,
                        const Tensor& input, const Tensor& weight) {
  PassTotals totals(sim.config());
  Tensor& out = totals.result.output;
  out = Tensor(Shape{1, layer.out_c, layer.out_h, layer.out_w});
  const std::int64_t positions = layer.out_h * layer.out_w;
  if (layer.kind == nn::OpKind::kDepthwiseConv) {
    const std::int64_t taps = layer.kernel_h * layer.kernel_w;
    for (std::int64_t c = 0; c < layer.in_c; ++c) {
      Tensor plane(Shape{layer.in_h, layer.in_w});
      Tensor filter(Shape{taps, 1});
      for (std::int64_t i = 0; i < plane.num_elements(); ++i) {
        plane[i] = input[c * plane.num_elements() + i];
      }
      for (std::int64_t t = 0; t < taps; ++t) {
        filter[t] = weight[c * taps + t];
      }
      const SimResult pass = sim.matmul(
          tensor::im2col_plane(plane, layer.kernel_h, layer.kernel_w,
                               layer.stride_h, layer.stride_w, layer.pad_h,
                               layer.pad_w),
          filter);
      totals.add(pass);
      for (std::int64_t p = 0; p < positions; ++p) {
        out[c * positions + p] = pass.output[p];
      }
    }
    return totals.result;
  }
  const std::int64_t taps = layer.kernel_w;
  const std::int64_t padded = layer.in_w + 2 * layer.pad_w;
  const std::int64_t num_lines = layer.in_c * layer.out_h;
  Tensor lines(Shape{num_lines, padded});
  Tensor kernels(Shape{num_lines, taps});
  for (std::int64_t c = 0; c < layer.in_c; ++c) {
    for (std::int64_t l = 0; l < layer.out_h; ++l) {
      const std::int64_t line = c * layer.out_h + l;
      for (std::int64_t x = 0; x < layer.in_w; ++x) {
        lines.at(line, layer.pad_w + x) =
            input.at(0, c, l * layer.stride_h, x);
      }
      for (std::int64_t k = 0; k < taps; ++k) {
        kernels.at(line, k) = weight.at(c, 0, 0, k);
      }
    }
  }
  const SimResult pass = sim.conv1d_broadcast(lines, kernels);
  totals.add(pass);
  for (std::int64_t c = 0; c < layer.in_c; ++c) {
    for (std::int64_t l = 0; l < layer.out_h; ++l) {
      for (std::int64_t o = 0; o < layer.out_w; ++o) {
        out.at(0, c, l, o) =
            pass.output.at(c * layer.out_h + l, o * layer.stride_w);
      }
    }
  }
  return totals.result;
}

/// channelwise on both engines against the per-pass loop on each, and
/// the two engines against each other.
void expect_channelwise_is_its_passes(const ArrayConfig& cfg,
                                      const nn::LayerDesc& layer,
                                      const Tensor& input,
                                      const Tensor& weight) {
  const PrimitiveOp op = lower(layer, cfg).ops.front();
  SystolicArraySim fast(cfg, SimBackend::kFast);
  SystolicArraySim reference(cfg, SimBackend::kReference);
  const SimResult fast_call = fast.channelwise(op, input, weight, layer);
  const SimResult reference_call =
      reference.channelwise(op, input, weight, layer);
  {
    SCOPED_TRACE("fast engine vs its passes");
    expect_bit_exact(fast_call, per_pass_loop(fast, layer, input, weight));
  }
  {
    SCOPED_TRACE("reference engine vs its passes");
    expect_bit_exact(reference_call,
                     per_pass_loop(reference, layer, input, weight));
  }
  SCOPED_TRACE("fast vs reference");
  expect_bit_exact(fast_call, reference_call);
}

TEST(SimChannelwise, EqualsThePerPassLoopItReplaces) {
  const std::pair<nn::LayerDesc, Dataflow> cases[] = {
      {nn::make_depthwise("dw", 3, 7, 7, 3, 1, 1),
       Dataflow::kOutputStationary},
      {nn::make_depthwise("dw_s2", 5, 9, 6, 3, 2, 1),
       Dataflow::kOutputStationary},
      // WS: the fast engine steps the materialized passes.
      {nn::make_depthwise("dw_ws", 3, 6, 6, 3, 1, 1),
       Dataflow::kWeightStationary},
      {nn::make_fuse_row("row", 3, 6, 9, 3, 1, 1),
       Dataflow::kOutputStationary},
      // A strided line computes its dense width and keeps every other
      // output; broadcast lines take the kernel route on IS too.
      {nn::make_fuse_row("row_s2", 5, 7, 9, 3, 2, 1),
       Dataflow::kInputStationary},
  };
  std::uint64_t seed = 500;
  for (const auto& [layer, df] : cases) {
    SCOPED_TRACE(layer.name);
    const Tensor input = random_tensor(
        Shape{1, layer.in_c, layer.in_h, layer.in_w}, ++seed);
    const Tensor weight = random_tensor(
        Shape{layer.in_c, 1, layer.kernel_h, layer.kernel_w}, ++seed);
    expect_channelwise_is_its_passes(df_array(df, 4), layer, input, weight);
  }
}

TEST(SimChannelwise, NonFiniteWeightKeepsThePaddingProducts) {
  // A padding tap adds 0 x w: a zero for finite w, but NaN for w = +inf,
  // so the engines agree only if the fast engine steps the passes here.
  const nn::LayerDesc layer = nn::make_depthwise("dw_inf", 2, 5, 5, 3, 1, 1);
  const Tensor input = random_tensor(Shape{1, 2, 5, 5}, 601);
  Tensor weight = random_tensor(Shape{2, 1, 3, 3}, 602);
  weight[0] = std::numeric_limits<float>::infinity();
  const ArrayConfig cfg = df_array(Dataflow::kOutputStationary, 4);
  expect_channelwise_is_its_passes(cfg, layer, input, weight);
  SystolicArraySim fast(cfg, SimBackend::kFast);
  const SimResult result =
      fast.channelwise(lower(layer, cfg).ops.front(), input, weight, layer);
  // Output (0, 0) of channel 0 reads tap (0, 0) in the padding.
  EXPECT_TRUE(std::isnan(result.output.at(0, 0, 0, 0)));
}

}  // namespace
}  // namespace fuse::systolic
