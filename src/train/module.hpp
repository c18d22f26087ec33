// Minimal training substrate: layer modules with explicit forward/backward.
//
// The paper's accuracy study trains ImageNet models in PyTorch; this repo
// substitutes a small, self-contained C++ substrate able to train tiny
// networks (with depthwise or FuSeConv blocks) on a synthetic dataset and
// reproduce the accuracy *ordering* of Table I. Reverse-mode gradients are
// written per layer and verified against finite differences in tests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace fuse::train {

using nn::Activation;
using tensor::Shape;
using tensor::Tensor;

/// A learnable tensor and its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  explicit Parameter(std::string param_name, Shape shape)
      : name(std::move(param_name)), value(shape), grad(shape) {}

  void zero_grad() { grad.fill(0.0F); }
};

/// Base layer. forward() caches whatever backward() needs; backward()
/// accumulates parameter gradients and returns the input gradient.
class Module {
 public:
  virtual ~Module() = default;

  virtual Tensor forward(const Tensor& input) = 0;
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Appends pointers to this module's parameters (default: none).
  virtual void collect_params(std::vector<Parameter*>& params);

  virtual std::string name() const = 0;
};

/// Runs children in order.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Adds a layer; returns *this for chaining.
  Sequential& add(std::unique_ptr<Module> module);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<Parameter*>& params) override;
  std::string name() const override { return "sequential"; }

  std::size_t size() const { return children_.size(); }

 private:
  std::vector<std::unique_ptr<Module>> children_;
};

/// Grouped 2-D convolution with bias (covers dense, depthwise, pointwise,
/// and FuSeConv's 1-D branches). Forward and backward run on `kernels`.
class Conv2d : public Module {
 public:
  Conv2d(std::string layer_name, std::int64_t in_c, std::int64_t out_c,
         std::int64_t kernel_h, std::int64_t kernel_w,
         const nn::Conv2dParams& params, util::Rng& rng,
         const nn::KernelChoice& kernels = {});

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<Parameter*>& params) override;
  std::string name() const override { return name_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  std::string name_;
  nn::Conv2dParams params_;
  nn::KernelChoice kernels_;
  Parameter weight_;  // [out_c, in_c/groups, kh, kw]
  Parameter bias_;    // [out_c]
  Tensor cached_input_;
};

/// Fully connected with bias on [N, F] inputs. Forward and backward run
/// on `kernels`.
class Linear : public Module {
 public:
  Linear(std::string layer_name, std::int64_t in_f, std::int64_t out_f,
         util::Rng& rng, const nn::KernelChoice& kernels = {});

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<Parameter*>& params) override;
  std::string name() const override { return name_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  std::string name_;
  nn::KernelChoice kernels_;
  Parameter weight_;  // [out_f, in_f]
  Parameter bias_;    // [out_f]
  Tensor cached_input_;
};

/// Elementwise activation layer.
class ActivationLayer : public Module {
 public:
  explicit ActivationLayer(Activation act) : act_(act) {}

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override {
    return nn::activation_name(act_);
  }

 private:
  Activation act_;
  Tensor cached_input_;
};

/// Inverted dropout: training mode zeroes each element with probability p
/// and scales survivors by 1/(1-p) so eval needs no rescaling; eval mode
/// is the identity. The mask is drawn from the module's own deterministic
/// RNG stream.
class Dropout : public Module {
 public:
  Dropout(double drop_probability, std::uint64_t seed);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "dropout"; }

  void set_training(bool training) { training_ = training; }

 private:
  double p_;
  bool training_ = true;
  util::Rng rng_;
  Tensor mask_;  // scaled keep-mask from the last forward
};

/// Batch normalization over [N, C, H, W] (per-channel statistics).
/// Training mode normalizes with batch statistics and updates running
/// estimates; eval mode uses the running estimates (no backward needed).
class BatchNorm2d : public Module {
 public:
  BatchNorm2d(std::string layer_name, std::int64_t channels,
              double momentum = 0.1, double eps = 1e-5);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<Parameter*>& params) override;
  std::string name() const override { return name_; }

  void set_training(bool training) { training_ = training; }

  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }

 private:
  std::string name_;
  double momentum_;
  double eps_;
  bool training_ = true;
  Parameter gamma_;  // [C]
  Parameter beta_;   // [C]
  Tensor running_mean_;
  Tensor running_var_;
  // Cached for backward (training mode).
  Tensor cached_normalized_;  // x_hat
  Tensor cached_inv_std_;     // [C]
};

/// Residual block: output = body(input) + input (shapes must match).
class ResidualBlock : public Module {
 public:
  explicit ResidualBlock(std::unique_ptr<Module> body);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<Parameter*>& params) override;
  std::string name() const override { return "residual"; }

  Module& body() { return *body_; }

 private:
  std::unique_ptr<Module> body_;
};

/// [N, C, H, W] -> [N, C, 1, 1] mean over the spatial dims.
class GlobalAvgPool : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "gap"; }

 private:
  Shape cached_shape_;
};

/// [N, C, 1, 1] -> [N, C].
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "flatten"; }

 private:
  Shape cached_shape_;
};

}  // namespace fuse::train
