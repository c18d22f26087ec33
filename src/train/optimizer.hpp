// Optimizers. RMSprop matches the paper's training setup (§V-A2: rmsprop
// with momentum 0.9, exponential LR decay); SGD is kept for tests.
#pragma once

#include <vector>

#include "train/module.hpp"

namespace fuse::train {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter*> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  /// Applies one update from the accumulated gradients.
  virtual void step() = 0;

  void zero_grad() {
    for (Parameter* p : params_) {
      p->zero_grad();
    }
  }

 protected:
  std::vector<Parameter*> params_;
};

/// Plain SGD with optional momentum and weight decay.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Parameter*> params, double lr, double momentum = 0.0,
      double weight_decay = 0.0);

  void step() override;

  void set_lr(double lr) { lr_ = lr; }

 private:
  double lr_;
  double momentum_;
  double weight_decay_;
  std::vector<tensor::Tensor> velocity_;
};

/// RMSprop with momentum (the paper's optimizer).
class RmsProp : public Optimizer {
 public:
  RmsProp(std::vector<Parameter*> params, double lr, double alpha = 0.9,
          double momentum = 0.9, double eps = 1e-3,
          double weight_decay = 0.0);

  void step() override;

  void set_lr(double lr) { lr_ = lr; }

 private:
  double lr_;
  double alpha_;
  double momentum_;
  double eps_;
  double weight_decay_;
  std::vector<tensor::Tensor> square_avg_;
  std::vector<tensor::Tensor> velocity_;
};

}  // namespace fuse::train
