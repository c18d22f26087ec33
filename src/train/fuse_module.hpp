// Trainable FuSeConv block (the drop-in module the paper swaps for each
// depthwise layer): 1xK row-conv branch + Kx1 col-conv branch over channel
// slices, outputs concatenated. D = 1 (Full) or 2 (Half), exactly matching
// core::FuseConvStage semantics — tests assert the forward pass is
// identical. Both branches run on the module's kernel choice.
#pragma once

#include <memory>

#include "core/fuseconv.hpp"
#include "train/module.hpp"

namespace fuse::train {

class FuseConvModule : public Module {
 public:
  FuseConvModule(std::string layer_name, core::FuseConvSpec spec,
                 util::Rng& rng, const nn::KernelChoice& kernels = {});

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<Parameter*>& params) override;
  std::string name() const override { return name_; }

  const core::FuseConvSpec& spec() const { return spec_; }
  Conv2d& row_branch() { return *row_; }
  Conv2d& col_branch() { return *col_; }

 private:
  std::string name_;
  core::FuseConvSpec spec_;
  std::unique_ptr<Conv2d> row_;  // 1xK grouped conv on C/D channels
  std::unique_ptr<Conv2d> col_;  // Kx1 grouped conv on C/D channels
  Shape cached_input_shape_;
};

}  // namespace fuse::train
