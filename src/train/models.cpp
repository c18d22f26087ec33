#include "train/models.hpp"

#include "train/fuse_module.hpp"
#include "util/check.hpp"

namespace fuse::train {

using core::FuseConvSpec;
using core::FuseMode;

std::unique_ptr<Sequential> build_tiny_net(const TinyNetConfig& config,
                                           FuseMode mode, util::Rng& rng) {
  auto net = std::make_unique<Sequential>();
  std::int64_t c = config.in_channels;
  std::int64_t size = config.in_size;

  // Stem: dense 3x3.
  {
    nn::Conv2dParams p;
    p.pad_h = 1;
    p.pad_w = 1;
    net->add(std::make_unique<Conv2d>("stem", c, config.stem_channels, 3, 3,
                                      p, rng, config.kernels));
    net->add(std::make_unique<ActivationLayer>(Activation::kRelu));
    c = config.stem_channels;
  }

  for (int i = 0; i < 3; ++i) {
    const std::int64_t out_c = config.block_channels[i];
    const std::int64_t stride = config.block_strides[i];
    const std::string prefix = "block" + std::to_string(i);

    if (mode == FuseMode::kBaseline) {
      nn::Conv2dParams dw;
      dw.stride_h = stride;
      dw.stride_w = stride;
      dw.pad_h = config.kernel / 2;
      dw.pad_w = config.kernel / 2;
      dw.groups = c;
      net->add(std::make_unique<Conv2d>(prefix + "/dw", c, c, config.kernel,
                                        config.kernel, dw, rng,
                                        config.kernels));
    } else {
      FuseConvSpec spec;
      spec.channels = c;
      spec.in_h = size;
      spec.in_w = size;
      spec.kernel = config.kernel;
      spec.stride = stride;
      spec.pad = config.kernel / 2;
      spec.variant = core::fuse_mode_variant(mode);
      net->add(std::make_unique<FuseConvModule>(prefix + "/fuse", spec, rng,
                                                config.kernels));
      c = spec.out_channels();
    }
    net->add(std::make_unique<ActivationLayer>(Activation::kRelu));
    size = (size + stride - 1) / stride;  // 'same' padding geometry

    nn::Conv2dParams pw;
    net->add(std::make_unique<Conv2d>(prefix + "/pw", c, out_c, 1, 1, pw,
                                      rng, config.kernels));
    net->add(std::make_unique<ActivationLayer>(Activation::kRelu));
    c = out_c;
  }

  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Flatten>());
  net->add(std::make_unique<Linear>("classifier", c, config.num_classes,
                                    rng, config.kernels));
  return net;
}

namespace {

/// The depthwise-or-FuSe middle stage of an inverted-residual block,
/// followed by BN + ReLU6. Returns the resulting channel count (doubles
/// for FuSe-Full).
std::int64_t add_spatial_stage(Sequential& body, const std::string& prefix,
                               std::int64_t channels, std::int64_t size,
                               std::int64_t kernel, std::int64_t stride,
                               FuseMode mode, util::Rng& rng,
                               const nn::KernelChoice& kernels) {
  std::int64_t out_c = channels;
  if (mode == FuseMode::kBaseline) {
    nn::Conv2dParams dw;
    dw.stride_h = stride;
    dw.stride_w = stride;
    dw.pad_h = kernel / 2;
    dw.pad_w = kernel / 2;
    dw.groups = channels;
    body.add(std::make_unique<Conv2d>(prefix + "/dw", channels, channels,
                                      kernel, kernel, dw, rng, kernels));
  } else {
    FuseConvSpec spec;
    spec.channels = channels;
    spec.in_h = size;
    spec.in_w = size;
    spec.kernel = kernel;
    spec.stride = stride;
    spec.pad = kernel / 2;
    spec.variant = core::fuse_mode_variant(mode);
    body.add(
        std::make_unique<FuseConvModule>(prefix + "/fuse", spec, rng, kernels));
    out_c = spec.out_channels();
  }
  body.add(std::make_unique<BatchNorm2d>(prefix + "/bn2", out_c));
  body.add(std::make_unique<ActivationLayer>(Activation::kRelu6));
  return out_c;
}

/// Appends one inverted-residual block; returns the new spatial size.
std::int64_t add_inverted_block(Sequential& net, const std::string& prefix,
                                std::int64_t& channels, std::int64_t size,
                                std::int64_t out_c, std::int64_t stride,
                                FuseMode mode, util::Rng& rng,
                                const nn::KernelChoice& kernels) {
  const std::int64_t expand_c = channels * 2;
  const bool has_skip = (stride == 1 && channels == out_c);

  auto body = std::make_unique<Sequential>();
  nn::Conv2dParams pw;
  body->add(std::make_unique<Conv2d>(prefix + "/expand", channels, expand_c,
                                     1, 1, pw, rng, kernels));
  body->add(std::make_unique<BatchNorm2d>(prefix + "/bn1", expand_c));
  body->add(std::make_unique<ActivationLayer>(Activation::kRelu6));

  const std::int64_t mid_c =
      add_spatial_stage(*body, prefix, expand_c, size, 3, stride, mode, rng,
                        kernels);

  body->add(std::make_unique<Conv2d>(prefix + "/project", mid_c, out_c, 1,
                                     1, pw, rng, kernels));
  body->add(std::make_unique<BatchNorm2d>(prefix + "/bn3", out_c));

  if (has_skip) {
    net.add(std::make_unique<ResidualBlock>(std::move(body)));
  } else {
    net.add(std::move(body));
  }
  channels = out_c;
  return (size + stride - 1) / stride;
}

}  // namespace

std::unique_ptr<Sequential> build_tiny_inverted_net(
    const TinyNetConfig& config, FuseMode mode, util::Rng& rng) {
  auto net = std::make_unique<Sequential>();
  std::int64_t c = config.in_channels;
  std::int64_t size = config.in_size;

  nn::Conv2dParams stem;
  stem.pad_h = 1;
  stem.pad_w = 1;
  stem.stride_h = 2;
  stem.stride_w = 2;
  net->add(std::make_unique<Conv2d>("stem", c, config.stem_channels, 3, 3,
                                    stem, rng, config.kernels));
  net->add(std::make_unique<BatchNorm2d>("stem/bn", config.stem_channels));
  net->add(std::make_unique<ActivationLayer>(Activation::kRelu6));
  c = config.stem_channels;
  size = (size + 1) / 2;

  size = add_inverted_block(*net, "block0", c, size,
                            config.block_channels[0], /*stride=*/1, mode,
                            rng, config.kernels);
  // Same width: exercises the skip path.
  size = add_inverted_block(*net, "block1", c, size,
                            config.block_channels[0], /*stride=*/1, mode,
                            rng, config.kernels);

  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Flatten>());
  net->add(std::make_unique<Linear>("classifier", c, config.num_classes,
                                    rng, config.kernels));
  return net;
}

}  // namespace fuse::train
