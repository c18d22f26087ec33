#include "train/fuse_module.hpp"

#include "util/check.hpp"

namespace fuse::train {

using core::FuseVariant;

FuseConvModule::FuseConvModule(std::string layer_name,
                               core::FuseConvSpec spec, util::Rng& rng,
                               const nn::KernelChoice& kernels)
    : name_(std::move(layer_name)), spec_(spec) {
  spec_.validate();
  const std::int64_t branch_c = spec_.branch_channels();

  nn::Conv2dParams row_params;
  row_params.stride_h = spec_.stride;
  row_params.stride_w = spec_.stride;
  row_params.pad_h = 0;
  row_params.pad_w = spec_.pad;
  row_params.groups = branch_c;
  row_ = std::make_unique<Conv2d>(name_ + "/row", branch_c, branch_c,
                                  /*kernel_h=*/1, /*kernel_w=*/spec_.kernel,
                                  row_params, rng, kernels);

  nn::Conv2dParams col_params;
  col_params.stride_h = spec_.stride;
  col_params.stride_w = spec_.stride;
  col_params.pad_h = spec_.pad;
  col_params.pad_w = 0;
  col_params.groups = branch_c;
  col_ = std::make_unique<Conv2d>(name_ + "/col", branch_c, branch_c,
                                  /*kernel_h=*/spec_.kernel, /*kernel_w=*/1,
                                  col_params, rng, kernels);
}

Tensor FuseConvModule::forward(const Tensor& input) {
  FUSE_CHECK(input.shape().rank() == 4 &&
             input.shape().dim(1) == spec_.channels)
      << name_ << ": expected NCHW with C=" << spec_.channels << ", got "
      << input.shape().to_string();
  cached_input_shape_ = input.shape();
  const std::int64_t branch_c = spec_.branch_channels();

  const Tensor row_in = spec_.variant == FuseVariant::kFull
                            ? input
                            : core::slice_channels(input, 0, branch_c);
  const Tensor col_in =
      spec_.variant == FuseVariant::kFull
          ? input
          : core::slice_channels(input, branch_c, branch_c);
  return nn::concat_channels(row_->forward(row_in), col_->forward(col_in));
}

Tensor FuseConvModule::backward(const Tensor& grad_output) {
  const std::int64_t branch_c = spec_.branch_channels();
  FUSE_CHECK(grad_output.shape().dim(1) == 2 * branch_c)
      << name_ << ": grad channels " << grad_output.shape().dim(1)
      << " != " << 2 * branch_c;

  const Tensor grad_row_out =
      core::slice_channels(grad_output, 0, branch_c);
  const Tensor grad_col_out =
      core::slice_channels(grad_output, branch_c, branch_c);
  const Tensor grad_row_in = row_->backward(grad_row_out);
  const Tensor grad_col_in = col_->backward(grad_col_out);

  Tensor grad_input(cached_input_shape_);
  if (spec_.variant == FuseVariant::kFull) {
    // Both branches consumed the full input: gradients sum.
    for (std::int64_t i = 0; i < grad_input.num_elements(); ++i) {
      grad_input[i] = grad_row_in[i] + grad_col_in[i];
    }
  } else {
    // Half: each branch consumed a disjoint channel slice.
    const std::int64_t batch = cached_input_shape_.dim(0);
    const std::int64_t spatial =
        cached_input_shape_.dim(2) * cached_input_shape_.dim(3);
    const std::int64_t channels = cached_input_shape_.dim(1);
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t c = 0; c < branch_c; ++c) {
        for (std::int64_t hw = 0; hw < spatial; ++hw) {
          grad_input[(n * channels + c) * spatial + hw] =
              grad_row_in[(n * branch_c + c) * spatial + hw];
          grad_input[(n * channels + branch_c + c) * spatial + hw] =
              grad_col_in[(n * branch_c + c) * spatial + hw];
        }
      }
    }
  }
  return grad_input;
}

void FuseConvModule::collect_params(std::vector<Parameter*>& params) {
  row_->collect_params(params);
  col_->collect_params(params);
}

}  // namespace fuse::train
