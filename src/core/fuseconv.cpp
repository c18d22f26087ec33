#include "core/fuseconv.hpp"

#include <cmath>

#include "tensor/im2col.hpp"
#include "util/check.hpp"

namespace fuse::core {

using tensor::Shape;

std::int64_t fuse_divisor(FuseVariant variant) {
  return variant == FuseVariant::kFull ? 1 : 2;
}

std::string fuse_variant_name(FuseVariant variant) {
  return variant == FuseVariant::kFull ? "Full" : "Half";
}

void FuseConvSpec::validate() const {
  FUSE_CHECK(channels > 0 && in_h > 0 && in_w > 0)
      << "bad FuSeConv geometry: C=" << channels << " H=" << in_h
      << " W=" << in_w;
  FUSE_CHECK(kernel > 0 && stride > 0 && pad >= 0)
      << "bad FuSeConv kernel geometry: K=" << kernel << " s=" << stride
      << " p=" << pad;
  FUSE_CHECK(channels % fuse_divisor(variant) == 0)
      << "channel count " << channels << " not divisible by D="
      << fuse_divisor(variant);
  // The row branch pads only horizontally and the column branch only
  // vertically; their outputs can only concatenate when the replaced layer
  // used 'same' padding (odd K, pad = (K-1)/2), which is what every network
  // in the paper's evaluation does.
  FUSE_CHECK(2 * pad == kernel - 1)
      << "FuSeConv drop-in replacement requires 'same' padding: K="
      << kernel << " pad=" << pad;
}

std::int64_t FuseConvSpec::out_h() const {
  return tensor::conv_out_dim(in_h, kernel, stride, pad);
}

std::int64_t FuseConvSpec::out_w() const {
  return tensor::conv_out_dim(in_w, kernel, stride, pad);
}

std::uint64_t FuseConvSpec::stage_params() const {
  return 2ULL * static_cast<std::uint64_t>(branch_channels()) *
         static_cast<std::uint64_t>(kernel);
}

std::uint64_t FuseConvSpec::stage_macs() const {
  return 2ULL * static_cast<std::uint64_t>(out_h()) *
         static_cast<std::uint64_t>(out_w()) *
         static_cast<std::uint64_t>(branch_channels()) *
         static_cast<std::uint64_t>(kernel);
}

FuseConvStage::FuseConvStage(FuseConvSpec spec)
    : spec_(spec),
      row_weights_(Shape{spec.branch_channels(), 1, 1, spec.kernel}),
      col_weights_(Shape{spec.branch_channels(), 1, spec.kernel, 1}) {
  spec_.validate();
}

FuseConvStage::FuseConvStage(FuseConvSpec spec, util::Rng& rng)
    : FuseConvStage(spec) {
  // He-uniform over the K taps each output value sums.
  const float bound =
      std::sqrt(6.0F / static_cast<float>(spec_.kernel));
  row_weights_.fill_uniform(rng, -bound, bound);
  col_weights_.fill_uniform(rng, -bound, bound);
}

Tensor slice_channels(const Tensor& input, std::int64_t first_channel,
                      std::int64_t count) {
  FUSE_CHECK(input.shape().rank() == 4) << "slice_channels expects NCHW";
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t channels = input.shape().dim(1);
  const std::int64_t h = input.shape().dim(2);
  const std::int64_t w = input.shape().dim(3);
  FUSE_CHECK(first_channel >= 0 && count > 0 &&
             first_channel + count <= channels)
      << "channel slice [" << first_channel << ", " << first_channel + count
      << ") out of range for C=" << channels;
  Tensor out(Shape{batch, count, h, w});
  const std::int64_t spatial = h * w;
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < count; ++c) {
      for (std::int64_t hw = 0; hw < spatial; ++hw) {
        out[(n * count + c) * spatial + hw] =
            input[(n * channels + first_channel + c) * spatial + hw];
      }
    }
  }
  return out;
}

Tensor FuseConvStage::forward(const Tensor& input,
                              const nn::KernelChoice& choice) const {
  FUSE_CHECK(input.shape().rank() == 4)
      << "FuSeConv input must be NCHW, got " << input.shape().to_string();
  FUSE_CHECK(input.shape().dim(1) == spec_.channels)
      << "FuSeConv expects " << spec_.channels << " channels, got "
      << input.shape().dim(1);
  FUSE_CHECK(input.shape().dim(2) == spec_.in_h &&
             input.shape().dim(3) == spec_.in_w)
      << "FuSeConv expects " << spec_.in_h << "x" << spec_.in_w
      << " input, got " << input.shape().to_string();

  const std::int64_t branch_c = spec_.branch_channels();

  // Full: both branches read all channels. Half: the row branch reads the
  // first C/2 channels and the column branch the remaining C/2.
  const Tensor row_input =
      spec_.variant == FuseVariant::kFull
          ? input
          : slice_channels(input, 0, branch_c);
  const Tensor col_input =
      spec_.variant == FuseVariant::kFull
          ? input
          : slice_channels(input, branch_c, branch_c);

  // Row branch: 1xK kernel; full 2-D stride but only horizontal padding, so
  // the output spatial size matches the replaced KxK depthwise layer.
  nn::Conv2dParams row_params;
  row_params.stride_h = spec_.stride;
  row_params.stride_w = spec_.stride;
  row_params.pad_h = 0;
  row_params.pad_w = spec_.pad;
  row_params.groups = branch_c;
  const Tensor row_out =
      nn::conv2d(row_input, row_weights_, nullptr, row_params, choice);

  nn::Conv2dParams col_params;
  col_params.stride_h = spec_.stride;
  col_params.stride_w = spec_.stride;
  col_params.pad_h = spec_.pad;
  col_params.pad_w = 0;
  col_params.groups = branch_c;
  const Tensor col_out =
      nn::conv2d(col_input, col_weights_, nullptr, col_params, choice);

  return nn::concat_channels(row_out, col_out);
}

std::vector<LayerDesc> lower_fuse_stage(const std::string& name,
                                        const FuseConvSpec& spec,
                                        Activation act, int fuse_slot) {
  spec.validate();
  const std::int64_t branch_c = spec.branch_channels();
  LayerDesc row = nn::make_fuse_row(name + "/row", branch_c, spec.in_h,
                                    spec.in_w, spec.kernel, spec.stride,
                                    spec.pad, act);
  LayerDesc col = nn::make_fuse_col(name + "/col", branch_c, spec.in_h,
                                    spec.in_w, spec.kernel, spec.stride,
                                    spec.pad, act);
  row.fuse_slot = fuse_slot;
  col.fuse_slot = fuse_slot;
  return {row, col};
}

}  // namespace fuse::core
