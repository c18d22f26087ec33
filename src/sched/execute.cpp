#include "sched/execute.hpp"

#include <algorithm>

#include "nn/kernels.hpp"
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

/// [positions, C_out] matmul product -> [1, C_out, H, W].
Tensor positions_to_nchw(const Tensor& product, std::int64_t out_c,
                         std::int64_t out_h, std::int64_t out_w) {
  Tensor output(Shape{1, out_c, out_h, out_w});
  nn::kernels::transpose(product.data(), out_h * out_w, out_c,
                         output.data());
  return output;
}

/// Writes the im2col rows of `channels` consecutive input planes starting
/// at `image` into `patches` ([out_h * out_w, channels * kh * kw], taps
/// ordered channel, kernel row, kernel column; padding taps 0) — every
/// element, so one buffer serves many calls.
void gather_patches(const LayerDesc& layer, const float* image,
                    std::int64_t channels, float* patches) {
  const std::int64_t plane = layer.in_h * layer.in_w;
  float* dst = patches;
  for (std::int64_t oy = 0; oy < layer.out_h; ++oy) {
    const std::int64_t iy0 = oy * layer.stride_h - layer.pad_h;
    for (std::int64_t ox = 0; ox < layer.out_w; ++ox) {
      const std::int64_t ix0 = ox * layer.stride_w - layer.pad_w;
      for (std::int64_t c = 0; c < channels; ++c) {
        for (std::int64_t ky = 0; ky < layer.kernel_h; ++ky) {
          const std::int64_t iy = iy0 + ky;
          if (iy < 0 || iy >= layer.in_h) {
            dst = std::fill_n(dst, layer.kernel_w, 0.0F);
            continue;
          }
          const float* row = image + c * plane + iy * layer.in_w;
          for (std::int64_t kx = 0; kx < layer.kernel_w; ++kx) {
            const std::int64_t ix = ix0 + kx;
            *dst++ = (ix < 0 || ix >= layer.in_w) ? 0.0F : row[ix];
          }
        }
      }
    }
  }
}

void add_counts(const SimResult& result, LayerExecution& exec) {
  exec.cycles += result.cycles;
  exec.folds += result.folds;
  exec.mac_ops += result.mac_ops;
}

LayerExecution execute_standard_conv(const LayerDesc& layer,
                                     const PrimitiveOp& op,
                                     const Tensor& input,
                                     const Tensor& weight,
                                     SystolicArraySim& sim) {
  const std::int64_t positions = layer.out_h * layer.out_w;
  const std::int64_t taps = layer.in_c * layer.kernel_h * layer.kernel_w;
  FUSE_CHECK(op.m == positions && op.k == taps && op.n == layer.out_c)
      << "im2col plan does not match layer " << layer.name;
  Tensor patches(Shape{positions, taps});
  gather_patches(layer, input.data(), layer.in_c, patches.data());
  // Flatten the filter bank to [taps, C_out].
  const SimResult result =
      sim.matmul(patches, nn::kernels::flatten_filters(weight));
  LayerExecution exec;
  add_counts(result, exec);
  exec.output =
      positions_to_nchw(result.output, layer.out_c, layer.out_h, layer.out_w);
  return exec;
}

/// Channelwise standard conv (Fig. 3(b)): one [positions, C_in] x
/// [C_in, C_out] matmul per kernel tap, partials accumulated off-array
/// (standing in for the adder tree the mapping assumes).
LayerExecution execute_channelwise_conv(const LayerDesc& layer,
                                        const PrimitiveOp& op,
                                        const Tensor& input,
                                        const Tensor& weight,
                                        SystolicArraySim& sim) {
  const std::int64_t positions = layer.out_h * layer.out_w;
  const std::int64_t plane = layer.in_h * layer.in_w;
  const std::int64_t taps = layer.kernel_h * layer.kernel_w;
  FUSE_CHECK(op.m == positions && op.k == layer.in_c &&
             op.n == layer.out_c && op.repeats == taps)
      << "channelwise plan does not match layer " << layer.name;
  const float* image = input.data();
  const float* w = weight.data();
  Tensor accum(Shape{positions, layer.out_c});
  Tensor activations(Shape{positions, layer.in_c});
  Tensor filters(Shape{layer.in_c, layer.out_c});
  LayerExecution exec;
  for (std::int64_t ky = 0; ky < layer.kernel_h; ++ky) {
    for (std::int64_t kx = 0; kx < layer.kernel_w; ++kx) {
      // The tap's activations: input shifted by (ky, kx), zero padded.
      float* act = activations.data();
      for (std::int64_t pos = 0; pos < positions; ++pos) {
        const std::int64_t iy =
            (pos / layer.out_w) * layer.stride_h - layer.pad_h + ky;
        const std::int64_t ix =
            (pos % layer.out_w) * layer.stride_w - layer.pad_w + kx;
        float* dst = act + pos * layer.in_c;
        if (iy < 0 || iy >= layer.in_h || ix < 0 || ix >= layer.in_w) {
          std::fill_n(dst, layer.in_c, 0.0F);
          continue;
        }
        const float* src = image + iy * layer.in_w + ix;
        for (std::int64_t ic = 0; ic < layer.in_c; ++ic) {
          dst[ic] = src[ic * plane];
        }
      }
      // filters[ic][oc] = weight[oc][ic][ky][kx].
      const float* tap = w + ky * layer.kernel_w + kx;
      float* f = filters.data();
      for (std::int64_t ic = 0; ic < layer.in_c; ++ic) {
        for (std::int64_t oc = 0; oc < layer.out_c; ++oc) {
          f[ic * layer.out_c + oc] = tap[(oc * layer.in_c + ic) * taps];
        }
      }
      const SimResult result = sim.matmul(activations, filters);
      add_counts(result, exec);
      float* sum = accum.data();
      const float* partial = result.output.data();
      for (std::int64_t i = 0; i < accum.num_elements(); ++i) {
        sum[i] += partial[i];
      }
    }
  }
  exec.output =
      positions_to_nchw(accum, layer.out_c, layer.out_h, layer.out_w);
  return exec;
}

LayerExecution execute_depthwise(const LayerDesc& layer,
                                 const PrimitiveOp& op, const Tensor& input,
                                 const Tensor& weight,
                                 SystolicArraySim& sim) {
  const std::int64_t positions = layer.out_h * layer.out_w;
  const std::int64_t taps = layer.kernel_h * layer.kernel_w;
  FUSE_CHECK(op.m == positions && op.k == taps && op.n == 1 &&
             op.repeats == layer.out_c && layer.in_c == layer.out_c)
      << "depthwise plan does not match layer " << layer.name;
  LayerExecution exec;
  exec.output = Tensor(Shape{1, layer.out_c, layer.out_h, layer.out_w});
  // One single-column matmul per channel — the §III-B mapping; channels
  // serialize on the array. The operand buffers are reused across
  // channels.
  Tensor patches(Shape{positions, taps});
  Tensor filter(Shape{taps, 1});
  const std::int64_t plane = layer.in_h * layer.in_w;
  for (std::int64_t c = 0; c < layer.in_c; ++c) {
    gather_patches(layer, input.data() + c * plane, 1, patches.data());
    std::copy_n(weight.data() + c * taps, taps, filter.data());
    const SimResult result = sim.matmul(patches, filter);
    add_counts(result, exec);
    // The [positions, 1] product is output channel c's plane.
    std::copy_n(result.output.data(), positions,
                exec.output.data() + c * positions);
  }
  return exec;
}

LayerExecution execute_pointwise(const LayerDesc& layer,
                                 const PrimitiveOp& op, const Tensor& input,
                                 const Tensor& weight,
                                 SystolicArraySim& sim) {
  const std::int64_t positions = layer.in_h * layer.in_w;
  FUSE_CHECK(op.m == positions && op.k == layer.in_c && op.n == layer.out_c)
      << "pointwise plan does not match layer " << layer.name;
  // [C_in, positions] -> [positions, C_in].
  Tensor activations(Shape{positions, layer.in_c});
  nn::kernels::transpose(input.data(), layer.in_c, positions,
                         activations.data());
  // [C_out, C_in, 1, 1] flattens to exactly the [C_in, C_out] operand.
  const SimResult result =
      sim.matmul(activations, nn::kernels::flatten_filters(weight));
  LayerExecution exec;
  add_counts(result, exec);
  exec.output =
      positions_to_nchw(result.output, layer.out_c, layer.out_h, layer.out_w);
  return exec;
}

/// Shared by the row and column branches: lays out one padded line per
/// (channel, spatial line) with the channel's 1-D kernel, runs the
/// broadcast dataflow, and scatters the outputs back to NCHW.
///
/// Stride handling mirrors the latency model (ArrayConfig's
/// strided_fuse_dense_compute rationale): whole lines along the
/// non-convolved axis are skipped (only out_h rows / out_w columns are
/// mapped), while along the convolved axis the shift-register flow
/// computes the dense output and the scatter below keeps every stride-th
/// value — so the measured cycles match the dense-compute model exactly.
LayerExecution execute_fuse(const LayerDesc& layer, const PrimitiveOp& op,
                            const Tensor& input, const Tensor& weight,
                            SystolicArraySim& sim) {
  const bool row_branch = layer.kind == OpKind::kFuseRowConv;
  const std::int64_t channels = layer.in_c;
  const std::int64_t taps = row_branch ? layer.kernel_w : layer.kernel_h;
  const std::int64_t pad = row_branch ? layer.pad_w : layer.pad_h;
  const std::int64_t stride = row_branch ? layer.stride_w : layer.stride_h;
  // Stride along the line-index axis: those lines are simply not mapped.
  const std::int64_t line_stride =
      row_branch ? layer.stride_h : layer.stride_w;
  // Lines run along the convolved axis; the other axis indexes lines.
  const std::int64_t line_count_per_channel =
      row_branch ? layer.out_h : layer.out_w;
  const std::int64_t line_length = row_branch ? layer.in_w : layer.in_h;
  const std::int64_t padded = line_length + 2 * pad;
  const std::int64_t total_lines = channels * line_count_per_channel;
  const std::int64_t kept = row_branch ? layer.out_w : layer.out_h;
  const std::int64_t plane = layer.in_h * layer.in_w;

  FUSE_CHECK(op.lines == total_lines && op.taps == taps &&
             layer.in_c == layer.out_c)
      << "fuse plan does not match layer " << layer.name;

  // Line l of channel c is image row l * line_stride (row branch) or
  // image column l * line_stride (column branch), and output row or
  // column l: it starts l * line_step into its input plane and
  // l * out_line_step into its output plane, and its values sit `along`
  // and `out_along` apart.
  const std::int64_t along = row_branch ? 1 : layer.in_w;
  const std::int64_t line_step = line_stride * (row_branch ? layer.in_w : 1);
  const std::int64_t out_along = row_branch ? 1 : layer.out_w;
  const std::int64_t out_line_step = row_branch ? layer.out_w : 1;
  const std::int64_t out_plane = layer.out_h * layer.out_w;
  Tensor lines(Shape{total_lines, padded});
  Tensor kernels(Shape{total_lines, taps});
  for (std::int64_t line = 0; line < total_lines; ++line) {
    const std::int64_t c = line / line_count_per_channel;
    const float* src = input.data() + c * plane +
                       (line % line_count_per_channel) * line_step;
    float* dst = lines.data() + line * padded + pad;
    for (std::int64_t x = 0; x < line_length; ++x) {
      dst[x] = src[x * along];
    }
    // [C, 1, 1, K] and [C, 1, K, 1] both hold channel c's taps at c * K.
    std::copy_n(weight.data() + c * taps, taps, kernels.data() + line * taps);
  }

  LayerExecution exec;
  exec.output = Tensor(Shape{1, layer.out_c, layer.out_h, layer.out_w});
  // Writes a line's `kept` outputs, read `value_step` apart from `values`.
  const auto store = [&](std::int64_t line, const float* values,
                         std::int64_t value_step) {
    float* dst = exec.output.data() +
                 (line / line_count_per_channel) * out_plane +
                 (line % line_count_per_channel) * out_line_step;
    for (std::int64_t o = 0; o < kept; ++o) {
      dst[o * out_along] = values[o * value_step];
    }
  };
  if (op.broadcast) {
    const SimResult result = sim.conv1d_broadcast(lines, kernels);
    add_counts(result, exec);
    // Dense output along the convolved axis; keep every stride-th value.
    const std::int64_t dense = result.output.shape().dim(1);
    for (std::int64_t line = 0; line < total_lines; ++line) {
      store(line, result.output.data() + line * dense, stride);
    }
  } else {
    // No broadcast bus: each line degrades to a serialized single-column
    // matmul (the ablation baseline the plan's no-broadcast op models).
    const std::int64_t dense = padded - taps + 1;
    FUSE_CHECK(op.line_out == dense || op.line_out == kept)
        << "fuse plan width does not match layer " << layer.name;
    // A matmul can gather strided patches directly, so only the positions
    // the plan charges for are computed.
    const std::int64_t in_step = op.line_out == dense ? 1 : stride;
    const std::int64_t read_step = op.line_out == dense ? stride : 1;
    Tensor patches(Shape{op.line_out, taps});
    Tensor filter(Shape{taps, 1});
    for (std::int64_t line = 0; line < total_lines; ++line) {
      const float* src = lines.data() + line * padded;
      for (std::int64_t o = 0; o < op.line_out; ++o) {
        std::copy_n(src + o * in_step, taps, patches.data() + o * taps);
      }
      std::copy_n(kernels.data() + line * taps, taps, filter.data());
      const SimResult result = sim.matmul(patches, filter);
      add_counts(result, exec);
      store(line, result.output.data(), read_step);
    }
  }
  return exec;
}

LayerExecution execute_fully_connected(const LayerDesc& layer,
                                       const PrimitiveOp& op,
                                       const Tensor& input,
                                       const Tensor& weight,
                                       SystolicArraySim& sim) {
  FUSE_CHECK(op.m == 1 && op.k == layer.in_c && op.n == layer.out_c)
      << "FC plan does not match layer " << layer.name;
  const SimResult result = sim.matmul(input.reshaped(Shape{1, layer.in_c}),
                                     nn::kernels::transpose_2d(weight));
  LayerExecution exec;
  add_counts(result, exec);
  exec.output = result.output.reshaped(Shape{1, layer.out_c, 1, 1});
  return exec;
}

}  // namespace

LayerExecution execute_layer_on_array(const LayerDesc& layer,
                                      const Tensor& input,
                                      const Tensor& weight,
                                      const systolic::ArrayConfig& cfg,
                                      systolic::SimBackend backend) {
  // The same lowering the analytic model folds over drives the execution:
  // the plan picks the primitive, the layer only supplies the data layout.
  const systolic::MappingPlan plan = systolic::lower(layer, cfg);
  FUSE_CHECK(!plan.ops.empty() && layer.kind != OpKind::kGroupedConv)
      << "layer kind " << nn::op_kind_name(layer.kind)
      << " does not execute on the array (layer " << layer.name << ")";
  check_operands(layer, input, weight);
  const PrimitiveOp& op = plan.ops.front();
  SystolicArraySim sim(cfg, backend);
  switch (op.kind) {
    case PrimitiveKind::kMatmulTile:
      return layer.kind == OpKind::kFullyConnected
                 ? execute_fully_connected(layer, op, input, weight, sim)
                 : execute_pointwise(layer, op, input, weight, sim);
    case PrimitiveKind::kIm2colTile:
      return layer.kind == OpKind::kDepthwiseConv
                 ? execute_depthwise(layer, op, input, weight, sim)
                 : execute_standard_conv(layer, op, input, weight, sim);
    case PrimitiveKind::kChannelwiseTile:
      return execute_channelwise_conv(layer, op, input, weight, sim);
    case PrimitiveKind::kFuse1DLine:
      return execute_fuse(layer, op, input, weight, sim);
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
