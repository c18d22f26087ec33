// Tests for the layer-on-array executor that a generator cannot state:
// its error paths (glue, batch > 1, mis-shaped operands) and a whole
// separable block measured against its FuSe replacement. That every
// executable kind matches the nn reference and the plan fold on both
// engines under every kernel ISA is tests/test_differential.cpp's chain.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/fuseconv.hpp"
#include "nn/ops.hpp"
#include "oracles.hpp"
#include "sched/execute.hpp"
#include "sched/latency.hpp"
#include "tensor/im2col.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace fuse::sched {
namespace {

using nn::LayerDesc;
using nn::OpKind;
using systolic::ArrayConfig;
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

// --- FuSe padding on the axis a line does not convolve -----------------------

TEST(ExecuteLayer, FusePaddingAcrossLinesMapsZeroLines) {
  // nn::make_fuse_row/col pad only the convolved axis, but a layer padded
  // on the other axis too is well defined (nn::conv2d, the cycle model):
  // each line that falls in that padding is all zeros. Row line l reads
  // image row l * stride_h - pad_h, column line l image column
  // l * stride_w - pad_w.
  const ArrayConfig cfg = sim_array(8);
  for (const bool row : {true, false}) {
    for (const std::int64_t pad : {1, 2}) {
      for (const std::int64_t stride : {1, 2}) {
        LayerDesc layer = row ? nn::make_fuse_row("row", 2, 4, 5, 3, stride, 1)
                              : nn::make_fuse_col("col", 2, 5, 4, 3, stride, 1);
        (row ? layer.pad_h : layer.pad_w) = pad;
        layer.out_h = tensor::conv_out_dim(layer.in_h, layer.kernel_h,
                                           layer.stride_h, layer.pad_h);
        layer.out_w = tensor::conv_out_dim(layer.in_w, layer.kernel_w,
                                           layer.stride_w, layer.pad_w);
        SCOPED_TRACE(layer.name + " pad " + std::to_string(pad) + " stride " +
                     std::to_string(stride));
        const Tensor input = random_tensor(test::executor_input_shape(layer),
                                           40 + static_cast<std::uint64_t>(
                                                    pad * 2 + stride));
        const Tensor weight =
            random_tensor(test::executor_weight_shape(layer), 50);
        const LayerExecution fast = execute_layer_on_array(
            layer, input, weight, cfg, systolic::SimBackend::kFast);
        const LayerExecution reference = execute_layer_on_array(
            layer, input, weight, cfg, systolic::SimBackend::kReference);
        ASSERT_EQ(fast.output.shape(), reference.output.shape());
        EXPECT_EQ(std::memcmp(fast.output.data(), reference.output.data(),
                              static_cast<std::size_t>(
                                  fast.output.num_elements()) *
                                  sizeof(float)),
                  0);
        nn::Conv2dParams p;
        p.stride_h = layer.stride_h;
        p.stride_w = layer.stride_w;
        p.pad_h = layer.pad_h;
        p.pad_w = layer.pad_w;
        p.groups = layer.groups;
        const Tensor expected = nn::conv2d(input, weight, nullptr, p);
        EXPECT_TRUE(allclose(fast.output, expected, 1e-3F, 1e-4F))
            << "max diff " << tensor::max_abs_diff(fast.output, expected);
        const std::uint64_t modeled = layer_latency(layer, cfg).cycles;
        EXPECT_EQ(fast.cycles, modeled);
        EXPECT_EQ(reference.cycles, modeled);
      }
    }
  }
}

// --- operand validation ------------------------------------------------------

TEST(ExecuteLayer, MisShapedOperandsRejectedOnEveryPath) {
  // The executor indexes operands by the layer's dims through raw
  // pointers, so a short operand must be refused before it is read.
  const ArrayConfig no_bus = systolic::square_array(8, false);
  const std::pair<LayerDesc, ArrayConfig> paths[] = {
      {nn::make_conv("conv", 3, 7, 7, 5, 3, 1, 1), sim_array(8)},
      {nn::make_depthwise("dw", 4, 7, 7, 3, 1, 1), sim_array(8)},
      {nn::make_pointwise("pw", 6, 5, 5, 9), sim_array(8)},
      {nn::make_fuse_row("row", 3, 6, 6, 3, 1, 1), sim_array(8)},
      {nn::make_fuse_col("col", 3, 6, 6, 3, 1, 1), sim_array(8)},
      {nn::make_fuse_row("row_no_bus", 3, 6, 6, 3, 1, 1), no_bus},
      {nn::make_fully_connected("fc", 12, 7, false), sim_array(8)},
  };
  for (const auto& [layer, cfg] : paths) {
    const Shape in = test::executor_input_shape(layer);
    const Shape w = test::executor_weight_shape(layer);
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

}  // namespace
}  // namespace fuse::sched
