// Tiny trainable networks for the accuracy study: a MobileNet-V1-style
// stack of separable blocks where each depthwise layer can be kept or
// swapped for a FuSeConv module (Full or Half) — a miniature of the paper's
// drop-in replacement experiment.
#pragma once

#include <memory>

#include "core/transform.hpp"
#include "train/dataset.hpp"
#include "train/module.hpp"

namespace fuse::train {

struct TinyNetConfig {
  std::int64_t in_channels = 3;
  std::int64_t in_size = 16;      // square input
  std::int64_t num_classes = 4;
  std::int64_t stem_channels = 8;
  // Three separable blocks: (out_c, stride).
  std::int64_t block_channels[3] = {16, 16, 32};
  std::int64_t block_strides[3] = {2, 1, 2};
  std::int64_t kernel = 3;
  nn::KernelChoice kernels;  // every layer's forward and backward route
};

/// Builds the tiny network with each depthwise slot in the given mode
/// (kBaseline keeps depthwise, kFull/kHalf swap in FuSeConv).
std::unique_ptr<Sequential> build_tiny_net(const TinyNetConfig& config,
                                           core::FuseMode mode,
                                           util::Rng& rng);

/// A miniature MobileNet-V2: stem conv + BN, two inverted-residual blocks
/// (1x1 expand + BN + ReLU6, depthwise-or-FuSe + BN + ReLU6, linear 1x1
/// project + BN, skip connection when shapes allow), global pool,
/// classifier. The structurally faithful counterpart of the paper's V2
/// study at laptop scale.
std::unique_ptr<Sequential> build_tiny_inverted_net(
    const TinyNetConfig& config, core::FuseMode mode, util::Rng& rng);

}  // namespace fuse::train
