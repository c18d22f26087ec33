// int8_inference: FuSeConv on TPUv1-class arithmetic. Quantizes a FuSeConv
// stage to INT8 (affine activations, symmetric weights, INT32
// accumulation) and compares against the FP32 and FP16 forward passes —
// the deployment datatypes a systolic array actually runs.
//
// Usage: int8_inference [--channels=16] [--hw=16] [--variant=half]
//        [--kernel-backend=fast] [--kernel-isa=auto]
#include <cstdio>

#include "bench_common.hpp"
#include "core/fuseconv.hpp"
#include "tensor/half.hpp"
#include "tensor/quantize.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_int("channels", 16, "input channels");
  flags.add_int("hw", 16, "square feature-map size");
  flags.add_string("variant", "half", "full|half");
  bench::add_kernel_flags(flags);
  flags.parse(argc, argv);
  bench::apply_kernel_flags(flags);

  core::FuseConvSpec spec;
  spec.channels = flags.get_int("channels");
  spec.in_h = flags.get_int("hw");
  spec.in_w = flags.get_int("hw");
  spec.kernel = 3;
  spec.stride = 1;
  spec.pad = 1;
  spec.variant = flags.get_string("variant") == "full"
                     ? core::FuseVariant::kFull
                     : core::FuseVariant::kHalf;

  util::Rng rng(11);
  const core::FuseConvStage stage(spec, rng);
  tensor::Tensor input(
      tensor::Shape{1, spec.channels, spec.in_h, spec.in_w});
  input.fill_uniform(rng, -1.0F, 1.0F);

  // FP32 reference.
  const tensor::Tensor fp32 = stage.forward(input);

  // FP16 (the paper's precision): quantize weights + input through
  // binary16 and run the same forward.
  core::FuseConvStage fp16_stage(spec);
  fp16_stage.row_weights() = tensor::quantize_half(stage.row_weights());
  fp16_stage.col_weights() = tensor::quantize_half(stage.col_weights());
  const tensor::Tensor fp16 =
      fp16_stage.forward(tensor::quantize_half(input));

  // INT8 (TPUv1-class): affine activations, symmetric weights, INT32
  // accumulation.
  const tensor::Tensor int8 = core::fuseconv_forward_int8(stage, input);

  const float scale = fp32.abs_max();
  std::printf(
      "FuSeConv-%s %lldch %lldx%lld K=3 — numeric deviation from FP32 "
      "(output range +-%.2f):\n"
      "  FP16 : max |diff| = %.2e (%.4f%% of range)\n"
      "  INT8 : max |diff| = %.2e (%.4f%% of range)\n\n"
      "both precisions preserve the operator's output to well under a "
      "percent of its\nrange — the drop-in replacement survives deployment "
      "datatypes.\n",
      core::fuse_variant_name(spec.variant).c_str(),
      static_cast<long long>(spec.channels),
      static_cast<long long>(spec.in_h),
      static_cast<long long>(spec.in_w), scale,
      tensor::max_abs_diff(fp16, fp32),
      100.0F * tensor::max_abs_diff(fp16, fp32) / scale,
      tensor::max_abs_diff(int8, fp32),
      100.0F * tensor::max_abs_diff(int8, fp32) / scale);
  return 0;
}
