#include "train/module.hpp"

#include <cmath>

#include "nn/kernels.hpp"
#include "tensor/im2col.hpp"
#include "util/check.hpp"

namespace fuse::train {

void Module::collect_params(std::vector<Parameter*>& params) {
  (void)params;
}

Sequential& Sequential::add(std::unique_ptr<Module> module) {
  FUSE_CHECK(module != nullptr) << "null module";
  children_.push_back(std::move(module));
  return *this;
}

Tensor Sequential::forward(const Tensor& input) {
  Tensor current = input;
  for (auto& child : children_) {
    current = child->forward(current);
  }
  return current;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
    grad = (*it)->backward(grad);
  }
  return grad;
}

void Sequential::collect_params(std::vector<Parameter*>& params) {
  for (auto& child : children_) {
    child->collect_params(params);
  }
}

Conv2d::Conv2d(std::string layer_name, std::int64_t in_c, std::int64_t out_c,
               std::int64_t kernel_h, std::int64_t kernel_w,
               const nn::Conv2dParams& params, util::Rng& rng,
               const nn::KernelChoice& kernels)
    : name_(std::move(layer_name)),
      params_(params),
      kernels_(kernels),
      weight_(name_ + "/w",
              Shape{out_c, in_c / params.groups, kernel_h, kernel_w}),
      bias_(name_ + "/b", Shape{out_c}) {
  // He-uniform over the fan-in of one output value.
  const double fan_in = static_cast<double>(in_c / params.groups) *
                        static_cast<double>(kernel_h) *
                        static_cast<double>(kernel_w);
  const float bound = static_cast<float>(std::sqrt(6.0 / fan_in));
  weight_.value.fill_uniform(rng, -bound, bound);
  bias_.value.fill(0.0F);
}

Tensor Conv2d::forward(const Tensor& input) {
  cached_input_ = input;
  return nn::conv2d(input, weight_.value, &bias_.value, params_, kernels_);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  FUSE_CHECK(input.num_elements() > 0) << name_ << ": backward before forward";

  if (kernels_.backend == nn::KernelBackend::kFast) {
    // Bit-exact with the loops below: the fast path partitions grad_input
    // over images and the weight/bias gradients over output channels,
    // preserving each accumulator's reference visiting order.
    return nn::kernels::conv2d_backward_fast(input, weight_.value,
                                             grad_output, params_,
                                             &weight_.grad, &bias_.grad);
  }

  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t in_c = input.shape().dim(1);
  const std::int64_t in_h = input.shape().dim(2);
  const std::int64_t in_w = input.shape().dim(3);
  const std::int64_t out_c = grad_output.shape().dim(1);
  const std::int64_t out_h = grad_output.shape().dim(2);
  const std::int64_t out_w = grad_output.shape().dim(3);
  const std::int64_t kernel_h = weight_.value.shape().dim(2);
  const std::int64_t kernel_w = weight_.value.shape().dim(3);
  const std::int64_t group_in = in_c / params_.groups;
  const std::int64_t group_out = out_c / params_.groups;

  Tensor grad_input(input.shape());
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      const std::int64_t group = oc / group_out;
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          const float go = grad_output.at(n, oc, oy, ox);
          if (go == 0.0F) {
            continue;
          }
          bias_.grad.at(oc) += go;
          for (std::int64_t ic = 0; ic < group_in; ++ic) {
            const std::int64_t c = group * group_in + ic;
            for (std::int64_t ky = 0; ky < kernel_h; ++ky) {
              const std::int64_t iy = oy * params_.stride_h -
                                      params_.pad_h + ky * params_.dilation_h;
              if (iy < 0 || iy >= in_h) {
                continue;
              }
              for (std::int64_t kx = 0; kx < kernel_w; ++kx) {
                const std::int64_t ix = ox * params_.stride_w -
                                        params_.pad_w +
                                        kx * params_.dilation_w;
                if (ix < 0 || ix >= in_w) {
                  continue;
                }
                weight_.grad.at(oc, ic, ky, kx) +=
                    go * input.at(n, c, iy, ix);
                grad_input.at(n, c, iy, ix) +=
                    go * weight_.value.at(oc, ic, ky, kx);
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

void Conv2d::collect_params(std::vector<Parameter*>& params) {
  params.push_back(&weight_);
  params.push_back(&bias_);
}

Linear::Linear(std::string layer_name, std::int64_t in_f, std::int64_t out_f,
               util::Rng& rng, const nn::KernelChoice& kernels)
    : name_(std::move(layer_name)),
      kernels_(kernels),
      weight_(name_ + "/w", Shape{out_f, in_f}),
      bias_(name_ + "/b", Shape{out_f}) {
  const float bound =
      static_cast<float>(std::sqrt(6.0 / static_cast<double>(in_f)));
  weight_.value.fill_uniform(rng, -bound, bound);
  bias_.value.fill(0.0F);
}

Tensor Linear::forward(const Tensor& input) {
  cached_input_ = input;
  return nn::linear(input, weight_.value, &bias_.value, kernels_);
}

Tensor Linear::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  if (kernels_.backend == nn::KernelBackend::kFast) {
    return nn::kernels::linear_backward_fast(input, weight_.value,
                                             grad_output, &weight_.grad,
                                             &bias_.grad);
  }
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t in_f = input.shape().dim(1);
  const std::int64_t out_f = grad_output.shape().dim(1);

  Tensor grad_input(input.shape());
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t o = 0; o < out_f; ++o) {
      const float go = grad_output.at(n, o);
      if (go == 0.0F) {
        continue;
      }
      bias_.grad.at(o) += go;
      for (std::int64_t i = 0; i < in_f; ++i) {
        weight_.grad.at(o, i) += go * input.at(n, i);
        grad_input.at(n, i) += go * weight_.value.at(o, i);
      }
    }
  }
  return grad_input;
}

void Linear::collect_params(std::vector<Parameter*>& params) {
  params.push_back(&weight_);
  params.push_back(&bias_);
}

Tensor ActivationLayer::forward(const Tensor& input) {
  cached_input_ = input;
  return nn::apply_activation(input, act_);
}

Tensor ActivationLayer::backward(const Tensor& grad_output) {
  FUSE_CHECK(grad_output.shape() == cached_input_.shape())
      << "activation backward shape mismatch";
  Tensor grad = grad_output;
  for (std::int64_t i = 0; i < grad.num_elements(); ++i) {
    grad[i] *= nn::activation_grad(cached_input_[i], act_);
  }
  return grad;
}

Dropout::Dropout(double drop_probability, std::uint64_t seed)
    : p_(drop_probability), rng_(seed) {
  FUSE_CHECK(p_ >= 0.0 && p_ < 1.0)
      << "dropout probability must be in [0, 1), got " << p_;
}

Tensor Dropout::forward(const Tensor& input) {
  if (!training_ || p_ == 0.0) {
    mask_ = Tensor();
    return input;
  }
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p_));
  mask_ = Tensor(input.shape());
  Tensor out(input.shape());
  for (std::int64_t i = 0; i < input.num_elements(); ++i) {
    const bool keep = rng_.uniform() >= p_;
    mask_[i] = keep ? keep_scale : 0.0F;
    out[i] = input[i] * mask_[i];
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (mask_.num_elements() == 0) {
    return grad_output;  // eval mode / p == 0: identity
  }
  FUSE_CHECK(grad_output.shape() == mask_.shape())
      << "dropout backward shape mismatch";
  Tensor grad(grad_output.shape());
  for (std::int64_t i = 0; i < grad.num_elements(); ++i) {
    grad[i] = grad_output[i] * mask_[i];
  }
  return grad;
}

BatchNorm2d::BatchNorm2d(std::string layer_name, std::int64_t channels,
                         double momentum, double eps)
    : name_(std::move(layer_name)),
      momentum_(momentum),
      eps_(eps),
      gamma_(name_ + "/gamma", Shape{channels}),
      beta_(name_ + "/beta", Shape{channels}),
      running_mean_(Shape{channels}),
      running_var_(Shape{channels}) {
  FUSE_CHECK(channels > 0 && momentum > 0.0 && momentum <= 1.0 && eps > 0.0)
      << "bad BatchNorm2d config for " << name_;
  gamma_.value.fill(1.0F);
  running_var_.fill(1.0F);
}

Tensor BatchNorm2d::forward(const Tensor& input) {
  FUSE_CHECK(input.shape().rank() == 4 &&
             input.shape().dim(1) == gamma_.value.num_elements())
      << name_ << ": expected NCHW with C=" << gamma_.value.num_elements()
      << ", got " << input.shape().to_string();
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t channels = input.shape().dim(1);
  const std::int64_t spatial = input.shape().dim(2) * input.shape().dim(3);
  const std::int64_t count = batch * spatial;

  Tensor out(input.shape());
  cached_normalized_ = Tensor(input.shape());
  cached_inv_std_ = Tensor(Shape{channels});

  for (std::int64_t c = 0; c < channels; ++c) {
    double mean = 0.0;
    double var = 0.0;
    if (training_) {
      for (std::int64_t n = 0; n < batch; ++n) {
        for (std::int64_t hw = 0; hw < spatial; ++hw) {
          mean += input[(n * channels + c) * spatial + hw];
        }
      }
      mean /= static_cast<double>(count);
      for (std::int64_t n = 0; n < batch; ++n) {
        for (std::int64_t hw = 0; hw < spatial; ++hw) {
          const double d =
              input[(n * channels + c) * spatial + hw] - mean;
          var += d * d;
        }
      }
      var /= static_cast<double>(count);
      running_mean_[c] = static_cast<float>(
          (1.0 - momentum_) * running_mean_[c] + momentum_ * mean);
      running_var_[c] = static_cast<float>(
          (1.0 - momentum_) * running_var_[c] + momentum_ * var);
    } else {
      mean = running_mean_[c];
      var = running_var_[c];
    }
    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps_));
    cached_inv_std_[c] = inv_std;
    const float g = gamma_.value[c];
    const float b = beta_.value[c];
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t hw = 0; hw < spatial; ++hw) {
        const std::int64_t index = (n * channels + c) * spatial + hw;
        const float x_hat =
            (input[index] - static_cast<float>(mean)) * inv_std;
        cached_normalized_[index] = x_hat;
        out[index] = g * x_hat + b;
      }
    }
  }
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  FUSE_CHECK(training_) << name_ << ": backward requires training mode";
  FUSE_CHECK(grad_output.shape() == cached_normalized_.shape())
      << name_ << ": backward shape mismatch";
  const std::int64_t batch = grad_output.shape().dim(0);
  const std::int64_t channels = grad_output.shape().dim(1);
  const std::int64_t spatial =
      grad_output.shape().dim(2) * grad_output.shape().dim(3);
  const double count = static_cast<double>(batch * spatial);

  Tensor grad_input(grad_output.shape());
  for (std::int64_t c = 0; c < channels; ++c) {
    // Accumulate the per-channel reductions the batchnorm gradient needs.
    double sum_dy = 0.0;
    double sum_dy_xhat = 0.0;
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t hw = 0; hw < spatial; ++hw) {
        const std::int64_t index = (n * channels + c) * spatial + hw;
        sum_dy += grad_output[index];
        sum_dy_xhat += static_cast<double>(grad_output[index]) *
                       static_cast<double>(cached_normalized_[index]);
      }
    }
    gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
    beta_.grad[c] += static_cast<float>(sum_dy);

    const double g_inv_std = static_cast<double>(gamma_.value[c]) *
                             static_cast<double>(cached_inv_std_[c]);
    const double mean_dy = sum_dy / count;
    const double mean_dy_xhat = sum_dy_xhat / count;
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t hw = 0; hw < spatial; ++hw) {
        const std::int64_t index = (n * channels + c) * spatial + hw;
        grad_input[index] = static_cast<float>(
            g_inv_std *
            (static_cast<double>(grad_output[index]) - mean_dy -
             static_cast<double>(cached_normalized_[index]) *
                 mean_dy_xhat));
      }
    }
  }
  return grad_input;
}

void BatchNorm2d::collect_params(std::vector<Parameter*>& params) {
  params.push_back(&gamma_);
  params.push_back(&beta_);
}

ResidualBlock::ResidualBlock(std::unique_ptr<Module> body)
    : body_(std::move(body)) {
  FUSE_CHECK(body_ != nullptr) << "residual block needs a body";
}

Tensor ResidualBlock::forward(const Tensor& input) {
  const Tensor branch = body_->forward(input);
  FUSE_CHECK(branch.shape() == input.shape())
      << "residual body must preserve shape: " << input.shape().to_string()
      << " -> " << branch.shape().to_string();
  return nn::add(branch, input);
}

Tensor ResidualBlock::backward(const Tensor& grad_output) {
  const Tensor grad_branch = body_->backward(grad_output);
  return nn::add(grad_branch, grad_output);
}

void ResidualBlock::collect_params(std::vector<Parameter*>& params) {
  body_->collect_params(params);
}

Tensor GlobalAvgPool::forward(const Tensor& input) {
  cached_shape_ = input.shape();
  return nn::global_avg_pool(input);
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  const std::int64_t batch = cached_shape_.dim(0);
  const std::int64_t channels = cached_shape_.dim(1);
  const std::int64_t spatial = cached_shape_.dim(2) * cached_shape_.dim(3);
  Tensor grad_input(cached_shape_);
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const float g = grad_output.at(n, c, 0, 0) /
                      static_cast<float>(spatial);
      for (std::int64_t hw = 0; hw < spatial; ++hw) {
        grad_input[(n * channels + c) * spatial + hw] = g;
      }
    }
  }
  return grad_input;
}

Tensor Flatten::forward(const Tensor& input) {
  cached_shape_ = input.shape();
  const std::int64_t batch = input.shape().dim(0);
  return input.reshaped(
      Shape{batch, input.num_elements() / batch});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(cached_shape_);
}

}  // namespace fuse::train
