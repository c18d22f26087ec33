// Tests for the layer-on-array executor: for every operator kind, the
// simulated output must equal the fuse::nn reference and the measured
// cycle count must equal the analytic layer latency (non-overlapped mode).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/fuseconv.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "sched/execute.hpp"
#include "sched/latency.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace fuse::sched {
namespace {

using nn::LayerDesc;
using nn::OpKind;
using systolic::ArrayConfig;
using systolic::Dataflow;
using systolic::SimBackend;
using tensor::Shape;
using tensor::Tensor;
using tensor::allclose;

ArrayConfig sim_array(std::int64_t size) {
  ArrayConfig cfg = systolic::square_array(size);
  cfg.overlap_fold_drain = false;  // what the simulator measures
  return cfg;
}

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  t.fill_uniform(rng, -1.0F, 1.0F);
  return t;
}

/// Runs the executor and asserts both halves of the contract.
void check_executes_exactly(const LayerDesc& layer, const Tensor& input,
                            const Tensor& weight, const Tensor& expected,
                            const ArrayConfig& cfg) {
  const LayerExecution exec =
      execute_layer_on_array(layer, input, weight, cfg);
  EXPECT_TRUE(allclose(exec.output, expected, 1e-3F, 1e-4F))
      << layer.name << ": max diff "
      << tensor::max_abs_diff(exec.output, expected);
  const auto analytic = layer_latency(layer, cfg);
  EXPECT_EQ(exec.cycles, analytic.cycles) << layer.name;
  EXPECT_EQ(exec.mac_ops, analytic.mac_ops) << layer.name;
  EXPECT_EQ(exec.folds, analytic.folds) << layer.name;
}

TEST(ExecuteLayer, StandardConv) {
  const LayerDesc layer = nn::make_conv("conv", 3, 8, 8, 5, 3, 1, 1);
  const Tensor input = random_tensor(Shape{1, 3, 8, 8}, 1);
  const Tensor weight = random_tensor(Shape{5, 3, 3, 3}, 2);
  nn::Conv2dParams p;
  p.pad_h = 1;
  p.pad_w = 1;
  const Tensor expected = nn::conv2d(input, weight, nullptr, p);
  check_executes_exactly(layer, input, weight, expected, sim_array(8));
}

TEST(ExecuteLayer, StridedStandardConv) {
  const LayerDesc layer = nn::make_conv("conv", 3, 9, 9, 4, 3, 2, 1);
  const Tensor input = random_tensor(Shape{1, 3, 9, 9}, 3);
  const Tensor weight = random_tensor(Shape{4, 3, 3, 3}, 4);
  nn::Conv2dParams p;
  p.stride_h = 2;
  p.stride_w = 2;
  p.pad_h = 1;
  p.pad_w = 1;
  const Tensor expected = nn::conv2d(input, weight, nullptr, p);
  check_executes_exactly(layer, input, weight, expected, sim_array(8));
}

TEST(ExecuteLayer, DepthwiseConv) {
  const LayerDesc layer = nn::make_depthwise("dw", 4, 7, 7, 3, 1, 1);
  const Tensor input = random_tensor(Shape{1, 4, 7, 7}, 5);
  const Tensor weight = random_tensor(Shape{4, 1, 3, 3}, 6);
  nn::Conv2dParams p;
  p.pad_h = 1;
  p.pad_w = 1;
  p.groups = 4;
  const Tensor expected = nn::conv2d(input, weight, nullptr, p);
  check_executes_exactly(layer, input, weight, expected, sim_array(8));
}

TEST(ExecuteLayer, PointwiseConv) {
  const LayerDesc layer = nn::make_pointwise("pw", 6, 5, 5, 9);
  const Tensor input = random_tensor(Shape{1, 6, 5, 5}, 7);
  const Tensor weight = random_tensor(Shape{9, 6, 1, 1}, 8);
  const Tensor expected = nn::conv2d(input, weight, nullptr, {});
  check_executes_exactly(layer, input, weight, expected, sim_array(8));
}

TEST(ExecuteLayer, FuseRowBranch) {
  const LayerDesc layer = nn::make_fuse_row("row", 3, 6, 6, 3, 1, 1);
  const Tensor input = random_tensor(Shape{1, 3, 6, 6}, 9);
  const Tensor weight = random_tensor(Shape{3, 1, 1, 3}, 10);
  nn::Conv2dParams p;
  p.pad_w = 1;
  p.groups = 3;
  const Tensor expected = nn::conv2d(input, weight, nullptr, p);
  check_executes_exactly(layer, input, weight, expected, sim_array(8));
}

TEST(ExecuteLayer, FuseColBranch) {
  const LayerDesc layer = nn::make_fuse_col("col", 3, 6, 6, 5, 1, 2);
  const Tensor input = random_tensor(Shape{1, 3, 6, 6}, 11);
  const Tensor weight = random_tensor(Shape{3, 1, 5, 1}, 12);
  nn::Conv2dParams p;
  p.pad_h = 2;
  p.groups = 3;
  const Tensor expected = nn::conv2d(input, weight, nullptr, p);
  check_executes_exactly(layer, input, weight, expected, sim_array(8));
}

TEST(ExecuteLayer, FullyConnected) {
  const LayerDesc layer = nn::make_fully_connected("fc", 12, 7,
                                                   /*bias=*/false);
  const Tensor input = random_tensor(Shape{1, 12, 1, 1}, 13);
  const Tensor weight = random_tensor(Shape{7, 12}, 14);
  const Tensor expected =
      nn::linear(input.reshaped(Shape{1, 12}), weight, nullptr)
          .reshaped(Shape{1, 7, 1, 1});
  check_executes_exactly(layer, input, weight, expected, sim_array(8));
}

TEST(ExecuteLayer, StridedFuseRowComputesDenseAndDiscards) {
  // Stride 2: the array computes the dense output along the row and the
  // scatter keeps every second value — numerically identical to the
  // strided grouped conv, temporally identical to the dense-compute model.
  const LayerDesc layer = nn::make_fuse_row("row", 4, 8, 8, 3, 2, 1);
  const Tensor input = random_tensor(Shape{1, 4, 8, 8}, 15);
  const Tensor weight = random_tensor(Shape{4, 1, 1, 3}, 16);
  nn::Conv2dParams p;
  p.stride_h = 2;
  p.stride_w = 2;
  p.pad_w = 1;
  p.groups = 4;
  const Tensor expected = nn::conv2d(input, weight, nullptr, p);
  check_executes_exactly(layer, input, weight, expected, sim_array(8));
}

TEST(ExecuteLayer, StridedFuseColComputesDenseAndDiscards) {
  const LayerDesc layer = nn::make_fuse_col("col", 4, 9, 9, 3, 3, 1);
  const Tensor input = random_tensor(Shape{1, 4, 9, 9}, 17);
  const Tensor weight = random_tensor(Shape{4, 1, 3, 1}, 18);
  nn::Conv2dParams p;
  p.stride_h = 3;
  p.stride_w = 3;
  p.pad_h = 1;
  p.groups = 4;
  const Tensor expected = nn::conv2d(input, weight, nullptr, p);
  check_executes_exactly(layer, input, weight, expected, sim_array(8));
}

TEST(ExecuteLayer, GlueOpsRejected) {
  LayerDesc pool;
  pool.kind = OpKind::kGlobalAvgPool;
  pool.name = "pool";
  pool.in_c = pool.out_c = 4;
  pool.in_h = pool.in_w = 4;
  pool.out_h = pool.out_w = 1;
  EXPECT_THROW(execute_layer_on_array(pool, Tensor(Shape{1, 4, 4, 4}),
                                      Tensor(Shape{1}), sim_array(8)),
               util::Error);
}

TEST(ExecuteLayer, BatchGreaterThanOneRejected) {
  const LayerDesc layer = nn::make_pointwise("pw", 3, 4, 4, 3);
  EXPECT_THROW(execute_layer_on_array(layer, Tensor(Shape{2, 3, 4, 4}),
                                      Tensor(Shape{3, 3, 1, 1}),
                                      sim_array(8)),
               util::Error);
}

// --- whole-block simulation: the paper's comparison, fully measured ----------

TEST(ExecuteBlock, SeparableBlockVsFuseBlockMeasuredOnArray) {
  // A depthwise separable block (dw3x3 + pw) and its FuSe-Half drop-in
  // replacement (row+col 1-D + pw), both executed end-to-end on the
  // simulated array with real data. The FuSe block must (a) produce the
  // geometry the following pointwise expects and (b) be several times
  // faster in *measured* cycles.
  const std::int64_t channels = 8, hw = 12, out_c = 16;
  const ArrayConfig cfg = sim_array(16);
  util::Rng rng(17);

  const Tensor input = random_tensor(Shape{1, channels, hw, hw}, 18);
  const Tensor pw_weight =
      random_tensor(Shape{out_c, channels, 1, 1}, 19);

  // Baseline: depthwise then pointwise, both on the array.
  const LayerDesc dw = nn::make_depthwise("dw", channels, hw, hw, 3, 1, 1);
  const Tensor dw_weight = random_tensor(Shape{channels, 1, 3, 3}, 20);
  const LayerExecution dw_exec =
      execute_layer_on_array(dw, input, dw_weight, cfg);
  const LayerDesc pw = nn::make_pointwise("pw", channels, hw, hw, out_c);
  const LayerExecution base_pw_exec =
      execute_layer_on_array(pw, dw_exec.output, pw_weight, cfg);
  const std::uint64_t baseline_cycles =
      dw_exec.cycles + base_pw_exec.cycles;

  // FuSe-Half: row branch on channels [0, C/2), col branch on the rest,
  // concatenated, then the same pointwise.
  core::FuseConvSpec spec;
  spec.channels = channels;
  spec.in_h = hw;
  spec.in_w = hw;
  spec.kernel = 3;
  spec.stride = 1;
  spec.pad = 1;
  spec.variant = core::FuseVariant::kHalf;
  const core::FuseConvStage stage(spec, rng);

  const LayerDesc row =
      nn::make_fuse_row("row", channels / 2, hw, hw, 3, 1, 1);
  const LayerDesc col =
      nn::make_fuse_col("col", channels / 2, hw, hw, 3, 1, 1);
  const Tensor row_input = core::slice_channels(input, 0, channels / 2);
  const Tensor col_input =
      core::slice_channels(input, channels / 2, channels / 2);
  const LayerExecution row_exec =
      execute_layer_on_array(row, row_input, stage.row_weights(), cfg);
  const LayerExecution col_exec =
      execute_layer_on_array(col, col_input, stage.col_weights(), cfg);
  const Tensor fuse_out =
      nn::concat_channels(row_exec.output, col_exec.output);

  // Simulated FuSe stage output must equal the reference stage forward.
  EXPECT_TRUE(allclose(fuse_out, stage.forward(input), 1e-3F, 1e-4F));

  const LayerExecution fuse_pw_exec =
      execute_layer_on_array(pw, fuse_out, pw_weight, cfg);
  const std::uint64_t fuse_cycles =
      row_exec.cycles + col_exec.cycles + fuse_pw_exec.cycles;

  EXPECT_GT(baseline_cycles, 2 * fuse_cycles)
      << "baseline " << baseline_cycles << " vs fuse " << fuse_cycles;
}

TEST(ExecuteLayer, WorksUnderWeightStationaryToo) {
  // The executor inherits the configured dataflow for matmul-shaped work.
  ArrayConfig cfg = sim_array(8);
  cfg.dataflow = systolic::Dataflow::kWeightStationary;
  const LayerDesc layer = nn::make_pointwise("pw", 6, 5, 5, 9);
  const Tensor input = random_tensor(Shape{1, 6, 5, 5}, 21);
  const Tensor weight = random_tensor(Shape{9, 6, 1, 1}, 22);
  const Tensor expected = nn::conv2d(input, weight, nullptr, {});
  check_executes_exactly(layer, input, weight, expected, cfg);
}

// --- operand validation ------------------------------------------------------

Shape input_shape(const LayerDesc& layer) {
  return layer.kind == OpKind::kFullyConnected
             ? Shape{1, layer.in_c, 1, 1}
             : Shape{1, layer.in_c, layer.in_h, layer.in_w};
}

Shape weight_shape(const LayerDesc& layer) {
  return layer.kind == OpKind::kFullyConnected
             ? Shape{layer.out_c, layer.in_c}
             : Shape{layer.out_c, layer.in_c / layer.groups, layer.kernel_h,
                     layer.kernel_w};
}

/// nn's answer for `layer`: conv2d for the conv kinds, linear for FC.
Tensor nn_reference(const LayerDesc& layer, const Tensor& input,
                    const Tensor& weight) {
  if (layer.kind == OpKind::kFullyConnected) {
    return nn::linear(input.reshaped(Shape{1, layer.in_c}), weight, nullptr)
        .reshaped(Shape{1, layer.out_c, 1, 1});
  }
  nn::Conv2dParams p;
  p.stride_h = layer.stride_h;
  p.stride_w = layer.stride_w;
  p.pad_h = layer.pad_h;
  p.pad_w = layer.pad_w;
  p.groups = layer.groups;
  return nn::conv2d(input, weight, nullptr, p);
}

TEST(ExecuteLayer, MisShapedOperandsRejectedOnEveryPath) {
  // The executor indexes operands by the layer's dims through raw
  // pointers, so a short operand must be refused before it is read.
  ArrayConfig channelwise = sim_array(8);
  channelwise.standard_conv_mapping =
      systolic::StandardConvMapping::kChannelwise;
  const ArrayConfig no_bus = systolic::square_array(8, false);
  const std::pair<LayerDesc, ArrayConfig> paths[] = {
      {nn::make_conv("conv", 3, 7, 7, 5, 3, 1, 1), sim_array(8)},
      {nn::make_conv("conv_cw", 3, 7, 7, 5, 3, 1, 1), channelwise},
      {nn::make_depthwise("dw", 4, 7, 7, 3, 1, 1), sim_array(8)},
      {nn::make_pointwise("pw", 6, 5, 5, 9), sim_array(8)},
      {nn::make_fuse_row("row", 3, 6, 6, 3, 1, 1), sim_array(8)},
      {nn::make_fuse_col("col", 3, 6, 6, 3, 1, 1), sim_array(8)},
      {nn::make_fuse_row("row_no_bus", 3, 6, 6, 3, 1, 1), no_bus},
      {nn::make_fully_connected("fc", 12, 7, false), sim_array(8)},
  };
  for (const auto& [layer, cfg] : paths) {
    const Shape in = input_shape(layer);
    const Shape w = weight_shape(layer);
    EXPECT_NO_THROW(
        execute_layer_on_array(layer, Tensor(in), Tensor(w), cfg))
        << layer.name;
    // One input channel / one output filter short of the layer.
    std::vector<std::int64_t> in_dims = in.dims();
    in_dims[1] -= 1;
    std::vector<std::int64_t> w_dims = w.dims();
    w_dims[0] -= 1;
    EXPECT_THROW(execute_layer_on_array(layer, Tensor(Shape(in_dims)),
                                        Tensor(w), cfg),
                 util::Error)
        << layer.name;
    EXPECT_THROW(execute_layer_on_array(layer, Tensor(in),
                                        Tensor(Shape(w_dims)), cfg),
                 util::Error)
        << layer.name;
    if (layer.kind != OpKind::kFullyConnected) {
      // An output extent the input and kernel cannot produce.
      LayerDesc taller = layer;
      taller.out_h += 1;
      EXPECT_THROW(execute_layer_on_array(taller, Tensor(in), Tensor(w), cfg),
                   util::Error)
          << layer.name;
    }
  }
}

// --- seeded differential coverage --------------------------------------------

struct GeneratedCase {
  LayerDesc layer;
  ArrayConfig cfg;
};

/// A fixed-seed stream of layer x array cases over every kind the
/// executor runs: odd spatial sizes, stride 1-3, kernel 1-5, padding 0-2,
/// channel counts at array-size multiples +-1, square and rectangular
/// arrays, all three dataflows, broadcast on and off, and both
/// standard-conv mappings. Fold-drain overlap stays off (the simulator
/// always pays each fold's drain).
std::vector<GeneratedCase> generate_cases(std::uint64_t seed, int count) {
  util::Rng rng(seed);
  const auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng.uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  const OpKind kinds[] = {OpKind::kStandardConv, OpKind::kDepthwiseConv,
                          OpKind::kPointwiseConv, OpKind::kFuseRowConv,
                          OpKind::kFuseColConv, OpKind::kFullyConnected};
  const Dataflow dataflows[] = {Dataflow::kOutputStationary,
                                Dataflow::kWeightStationary,
                                Dataflow::kInputStationary};
  std::vector<GeneratedCase> cases;
  for (int i = 0; i < count; ++i) {
    ArrayConfig cfg;
    cfg.rows = pick(2, 8);
    cfg.cols = pick(0, 1) == 0 ? cfg.rows : pick(2, 8);
    cfg.dataflow = dataflows[pick(0, 2)];
    cfg.broadcast_links = pick(0, 1) == 0;
    cfg.overlap_fold_drain = false;
    // Channel counts one below, at, or one above a multiple of the side
    // of the array they fold over.
    const auto channels = [&](std::int64_t side) {
      return std::max<std::int64_t>(1, side * pick(1, 2) + pick(-1, 1));
    };
    const std::int64_t kernel = pick(1, 5);
    const std::int64_t stride = pick(1, 3);
    const std::int64_t pad = pick(0, 2);
    // Odd sizes, at least as large as the kernel once padded.
    const auto extent = [&] {
      return std::max<std::int64_t>(2 * pick(0, 5) + 1, kernel - 2 * pad);
    };
    const std::int64_t h = extent();
    const std::int64_t w = extent();
    const std::string name = "case" + std::to_string(i);
    LayerDesc layer;
    switch (kinds[i % 6]) {
      case OpKind::kStandardConv:
        if (pick(0, 1) == 0) {
          cfg.standard_conv_mapping =
              systolic::StandardConvMapping::kChannelwise;
        }
        layer = nn::make_conv(name, pick(1, 4), h, w, channels(cfg.cols),
                              kernel, stride, pad);
        break;
      case OpKind::kDepthwiseConv:
        layer = nn::make_depthwise(name, pick(1, 5), h, w, kernel, stride,
                                   pad);
        break;
      case OpKind::kPointwiseConv:
        layer = nn::make_pointwise(name, channels(cfg.rows), h, w,
                                   channels(cfg.cols));
        break;
      case OpKind::kFuseRowConv:
        layer = nn::make_fuse_row(name, channels(cfg.rows), h, w, kernel,
                                  stride, pad);
        break;
      case OpKind::kFuseColConv:
        layer = nn::make_fuse_col(name, channels(cfg.rows), h, w, kernel,
                                  stride, pad);
        break;
      default:
        layer = nn::make_fully_connected(name, channels(cfg.rows),
                                         channels(cfg.cols), false);
        break;
    }
    cases.push_back({layer, cfg});
  }
  return cases;
}

std::string describe(const GeneratedCase& c) {
  return c.layer.to_string() + " on " + c.cfg.to_string() + " " +
         systolic::dataflow_name(c.cfg.dataflow);
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

TEST(ExecuteDifferential, GeneratedCasesMatchNnModelAndReferenceEngine) {
  for_each_kernel_isa([] {
    int checked = 0;
    for (const GeneratedCase& c : generate_cases(/*seed=*/2021, 200)) {
      const Tensor input =
          random_tensor(input_shape(c.layer), 100 + checked);
      const Tensor weight =
          random_tensor(weight_shape(c.layer), 500 + checked);
      ++checked;
      const LayerExecution fast = execute_layer_on_array(
          c.layer, input, weight, c.cfg, SimBackend::kFast);
      // (1) the numbers nn computes,
      const Tensor expected = nn_reference(c.layer, input, weight);
      EXPECT_TRUE(allclose(fast.output, expected, 1e-3F, 1e-4F))
          << describe(c) << ": max diff "
          << tensor::max_abs_diff(fast.output, expected);
      // (2) the cost the analytic model charges,
      const auto analytic = layer_latency(c.layer, c.cfg);
      EXPECT_EQ(fast.cycles, analytic.cycles) << describe(c);
      EXPECT_EQ(fast.folds, analytic.folds) << describe(c);
      EXPECT_EQ(fast.mac_ops, analytic.mac_ops) << describe(c);
      // (3) the bits the per-cycle reference engine produces.
      const LayerExecution reference = execute_layer_on_array(
          c.layer, input, weight, c.cfg, SimBackend::kReference);
      ASSERT_EQ(fast.output.shape(), reference.output.shape())
          << describe(c);
      EXPECT_EQ(std::memcmp(fast.output.data(), reference.output.data(),
                            static_cast<std::size_t>(
                                fast.output.num_elements()) *
                                sizeof(float)),
                0)
          << describe(c);
      EXPECT_EQ(fast.cycles, reference.cycles) << describe(c);
    }
    EXPECT_EQ(checked, 200);
  });
}

}  // namespace
}  // namespace fuse::sched
