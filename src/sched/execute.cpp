#include "sched/execute.hpp"

#include <algorithm>

#include "systolic/mapping.hpp"
#include "tensor/im2col.hpp"
#include "util/check.hpp"

namespace fuse::sched {

using nn::LayerDesc;
using nn::OpKind;
using systolic::PrimitiveKind;
using systolic::PrimitiveOp;
using systolic::SimResult;
using systolic::SystolicArraySim;
using tensor::Shape;
using tensor::Tensor;

namespace {

/// Rejects operands whose shapes disagree with the layer, and a layer
/// whose output extent does not follow from its input and kernel. The
/// paths below index `input`, `weight` and the output through raw
/// pointers by the layer's dims, so this check is what keeps them in
/// bounds.
void check_operands(const LayerDesc& layer, const Tensor& input,
                    const Tensor& weight) {
  if (layer.kind == OpKind::kFullyConnected) {
    FUSE_CHECK(input.num_elements() == layer.in_c)
        << "layer " << layer.name << ": FC input must flatten to "
        << layer.in_c << " features, got " << input.shape().to_string();
    FUSE_CHECK(weight.shape() == Shape({layer.out_c, layer.in_c}))
        << "layer " << layer.name << ": FC weight must be ["
        << layer.out_c << ", " << layer.in_c << "], got "
        << weight.shape().to_string();
    return;
  }
  FUSE_CHECK(layer.out_h == tensor::conv_out_dim(layer.in_h, layer.kernel_h,
                                                 layer.stride_h,
                                                 layer.pad_h) &&
             layer.out_w == tensor::conv_out_dim(layer.in_w, layer.kernel_w,
                                                 layer.stride_w, layer.pad_w))
      << "layer " << layer.name << ": output " << layer.out_h << "x"
      << layer.out_w << " does not follow from its input and kernel";
  const Shape input_shape{1, layer.in_c, layer.in_h, layer.in_w};
  FUSE_CHECK(input.shape() == input_shape)
      << "layer " << layer.name << ": input must be the batch-1 NCHW "
      << input_shape.to_string() << ", got " << input.shape().to_string();
  const Shape weight_shape{layer.out_c, layer.in_c / layer.groups,
                           layer.kernel_h, layer.kernel_w};
  FUSE_CHECK(weight.shape() == weight_shape)
      << "layer " << layer.name << ": weight must be "
      << weight_shape.to_string() << ", got " << weight.shape().to_string();
}

/// Writes `plane` as kernel tap (ky, kx) sees it at every output
/// position, zero where the tap falls in the padding: one row of the
/// [taps, positions] column matrix the im2col matmul reads in the W x X
/// orientation.
void gather_tap(const LayerDesc& layer, const float* plane, std::int64_t ky,
                std::int64_t kx, float* dst) {
  for (std::int64_t oy = 0; oy < layer.out_h; ++oy) {
    const std::int64_t iy = oy * layer.stride_h - layer.pad_h + ky;
    if (iy < 0 || iy >= layer.in_h) {
      dst = std::fill_n(dst, layer.out_w, 0.0F);
      continue;
    }
    const float* row = plane + iy * layer.in_w;
    for (std::int64_t ox = 0; ox < layer.out_w; ++ox) {
      const std::int64_t ix = ox * layer.stride_w - layer.pad_w + kx;
      *dst++ = (ix < 0 || ix >= layer.in_w) ? 0.0F : row[ix];
    }
  }
}

/// A simulated call as the layer's execution: a matmul_wx product
/// [C_out, H * W] is already the NCHW output.
LayerExecution to_execution(const LayerDesc& layer, SimResult result) {
  LayerExecution exec;
  exec.cycles = result.cycles;
  exec.folds = result.folds;
  exec.mac_ops = result.mac_ops;
  exec.output = std::move(result.output)
                    .reshaped(Shape{1, layer.out_c, layer.out_h, layer.out_w});
  return exec;
}

/// im2col conv: one [C_out, taps] x [taps, positions] matmul, the filter
/// bank read in place.
LayerExecution execute_standard_conv(const LayerDesc& layer,
                                     const PrimitiveOp& op,
                                     const Tensor& input,
                                     const Tensor& weight,
                                     SystolicArraySim& sim) {
  const std::int64_t positions = layer.out_h * layer.out_w;
  const std::int64_t plane = layer.in_h * layer.in_w;
  const std::int64_t taps = layer.in_c * layer.kernel_h * layer.kernel_w;
  FUSE_CHECK(op.m == positions && op.k == taps && op.n == layer.out_c)
      << "im2col plan does not match layer " << layer.name;
  // Tap rows ordered channel, kernel row, kernel column: the filter
  // bank's [C_in, Kh, Kw] order.
  Tensor columns(Shape{taps, positions});
  float* dst = columns.data();
  for (std::int64_t c = 0; c < layer.in_c; ++c) {
    for (std::int64_t ky = 0; ky < layer.kernel_h; ++ky) {
      for (std::int64_t kx = 0; kx < layer.kernel_w; ++kx) {
        gather_tap(layer, input.data() + c * plane, ky, kx, dst);
        dst += positions;
      }
    }
  }
  return to_execution(layer, sim.matmul_wx(weight, columns));
}

}  // namespace

LayerExecution execute_layer_on_array(const LayerDesc& layer,
                                      const Tensor& input,
                                      const Tensor& weight,
                                      const systolic::ArrayConfig& cfg,
                                      systolic::SimBackend backend,
                                      nn::KernelIsa isa) {
  // The same lowering the analytic model folds over drives the execution:
  // the plan picks the primitive, the layer only supplies the data layout.
  const systolic::MappingPlan plan = systolic::lower(layer, cfg);
  FUSE_CHECK(!plan.ops.empty() && layer.kind != OpKind::kGroupedConv)
      << "layer kind " << nn::op_kind_name(layer.kind)
      << " does not execute on the array (layer " << layer.name << ")";
  check_operands(layer, input, weight);
  const PrimitiveOp& op = plan.ops.front();
  SystolicArraySim sim(cfg, backend, isa);
  switch (op.kind) {
    case PrimitiveKind::kMatmulTile:
      // Pointwise: the [C_out, C_in] filter bank times the [C_in, H * W]
      // input; FC: the [F_out, F_in] weight times the F_in features. Each
      // output position reads its own input position.
      FUSE_CHECK(op.m == layer.in_h * layer.in_w &&
                 op.m == layer.out_h * layer.out_w && op.k == layer.in_c &&
                 op.n == layer.out_c)
          << "matmul plan does not match layer " << layer.name;
      return to_execution(layer, sim.matmul_wx(weight, input));
    case PrimitiveKind::kIm2colTile:
      if (layer.kind == OpKind::kDepthwiseConv) {
        return to_execution(layer, sim.channelwise(op, input, weight, layer));
      }
      return execute_standard_conv(layer, op, input, weight, sim);
    case PrimitiveKind::kFuse1DLine:
      return to_execution(layer, sim.channelwise(op, input, weight, layer));
  }
  FUSE_CHECK(false) << "unknown primitive kind for layer " << layer.name;
  return {};
}

NetworkExecution execute_network_on_array(
    const nets::NetworkModel& model,
    const std::vector<tensor::Tensor>& weights, const Tensor& input,
    const NetworkPlan& plan, const systolic::ArrayConfig& cfg) {
  FUSE_CHECK(weights.size() == model.layers.size())
      << "execute_network_on_array needs one weight entry per layer";
  FUSE_CHECK(plan.layer_plans.size() == model.layers.size())
      << "NetworkPlan does not match the model";
  FUSE_CHECK(plan.on_array.size() == model.layers.size())
      << "execute_network_on_array requires every layer on-array "
         "(pool/add glue cannot thread the flat activation chain)";

  // The schedule orders folds, not arithmetic: executing in layer order
  // computes the same values the interleaved schedule would (a consumer
  // stripe only ever reads producer outputs that have already landed),
  // which is why fused and per-layer modes are bit-identical.
  NetworkExecution exec;
  Tensor activation = input;
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    LayerExecution layer_exec = execute_layer_on_array(
        model.layers[i], activation, weights[i], cfg);
    exec.cycles += layer_exec.cycles;
    exec.folds += layer_exec.folds;
    exec.mac_ops += layer_exec.mac_ops;
    activation = std::move(layer_exec.output);
  }
  exec.output = std::move(activation);
  if (!cfg.overlap_fold_drain) {
    // Without drain overlap the analytic model and the simulator share
    // the same per-fold accounting, so the schedule's cycle axis must be
    // what the simulated execution measured.
    FUSE_CHECK(exec.cycles == plan.total_cycles)
        << "executed cycles " << exec.cycles
        << " diverged from the schedule total " << plan.total_cycles;
  }
  return exec;
}

}  // namespace fuse::sched
