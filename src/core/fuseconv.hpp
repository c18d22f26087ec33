// FuSeConv: the paper's primary contribution (Section IV).
//
// A depthwise separable convolution filters each channel with a KxK kernel
// and then mixes channels with a 1x1 pointwise convolution. FuSeConv
// factorizes the KxK depthwise stage *fully* into 1-D depthwise
// convolutions: 1xK row filters on C/D channels and Kx1 column filters on
// C/D channels, whose outputs are concatenated (2C/D channels) and fed to
// the usual pointwise stage. D is the design knob:
//   D = 1 (Full): row AND column filters applied to all C channels -> 2C
//   D = 2 (Half): row filters on the first C/2 channels, column filters on
//                 the other C/2 -> C
// 1-D convolutions are systolic algorithms, so the factorized stage maps
// onto a 2-D systolic array with the row-broadcast dataflow at high
// utilization — that, not the MAC count, is where the speedup comes from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace fuse::core {

using nn::Activation;
using nn::LayerDesc;
using tensor::Tensor;

/// The D knob of the paper, as an enum so call sites read as the paper does.
enum class FuseVariant {
  kFull,  // D = 1
  kHalf,  // D = 2
};

/// D as an integer divisor.
std::int64_t fuse_divisor(FuseVariant variant);

/// "Full" / "Half" for reports.
std::string fuse_variant_name(FuseVariant variant);

/// Static description of one FuSeConv 1-D stage (replacing a KxK depthwise
/// layer on `channels` channels at spatial size in_h x in_w).
struct FuseConvSpec {
  std::int64_t channels = 0;  // channels of the replaced depthwise layer
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t kernel = 0;  // K of the replaced KxK depthwise kernel
  std::int64_t stride = 1;
  std::int64_t pad = 0;  // the replaced layer's (symmetric) padding
  FuseVariant variant = FuseVariant::kHalf;

  void validate() const;

  /// Channels processed by each 1-D branch: C / D.
  std::int64_t branch_channels() const {
    return channels / fuse_divisor(variant);
  }

  /// Output channels after concatenation: 2C / D.
  std::int64_t out_channels() const { return 2 * branch_channels(); }

  /// Output spatial size (identical to the replaced depthwise layer's).
  std::int64_t out_h() const;
  std::int64_t out_w() const;

  /// Parameters of the 1-D stage: (2/D) * C * K — the paper's formula
  /// without the pointwise term.
  std::uint64_t stage_params() const;

  /// MACs of the 1-D stage: (2/D) * N * M * C * K.
  std::uint64_t stage_macs() const;
};

/// Trainable FuSeConv 1-D stage with explicit weights; the reference
/// functional implementation everything else is validated against.
class FuseConvStage {
 public:
  /// Zero-initialized weights.
  explicit FuseConvStage(FuseConvSpec spec);

  /// He-uniform initialized weights.
  FuseConvStage(FuseConvSpec spec, util::Rng& rng);

  const FuseConvSpec& spec() const { return spec_; }

  /// Row-branch weights, grouped-conv layout [C/D, 1, 1, K].
  const Tensor& row_weights() const { return row_weights_; }
  Tensor& row_weights() { return row_weights_; }

  /// Column-branch weights, grouped-conv layout [C/D, 1, K, 1].
  const Tensor& col_weights() const { return col_weights_; }
  Tensor& col_weights() { return col_weights_; }

  /// Forward pass. input [N, C, H, W] -> [N, 2C/D, out_h, out_w].
  /// Full: both branches see all C channels; Half: the row branch sees
  /// channels [0, C/2) and the column branch channels [C/2, C). Both
  /// branches run on `choice`.
  Tensor forward(const Tensor& input,
                 const nn::KernelChoice& choice = {}) const;

 private:
  FuseConvSpec spec_;
  Tensor row_weights_;
  Tensor col_weights_;
};

/// Lowers a FuSeConv stage to the execution IR: a row 1xK layer and a
/// column Kx1 layer, both depthwise over C/D channels, tagged with
/// `fuse_slot`. (Concatenation is free — the two branches write disjoint
/// channel ranges.)
std::vector<LayerDesc> lower_fuse_stage(const std::string& name,
                                        const FuseConvSpec& spec,
                                        Activation act, int fuse_slot = -1);

/// Convenience: slices `count` channels starting at `first_channel` from an
/// NCHW tensor (used to feed each branch).
Tensor slice_channels(const Tensor& input, std::int64_t first_channel,
                      std::int64_t count);

}  // namespace fuse::core
