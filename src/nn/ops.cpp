#include "nn/ops.hpp"

#include "nn/kernels.hpp"

#include <algorithm>
#include <limits>

#include "tensor/im2col.hpp"
#include "util/check.hpp"
#include "util/telemetry.hpp"

namespace fuse::nn {

using tensor::conv_out_dim;

namespace {

/// True when the fast backend should run; bumps the per-backend dispatch
/// counters either way.
bool use_fast_backend(KernelBackend backend) {
  if (backend == KernelBackend::kFast) {
    static util::Counter& fast =
        util::metrics().counter("kernels.dispatch.fast");
    fast.add();
    return true;
  }
  static util::Counter& reference =
      util::metrics().counter("kernels.dispatch.reference");
  reference.add();
  return false;
}

/// Validates conv argument shapes and returns [out_h, out_w].
std::pair<std::int64_t, std::int64_t> check_conv_args(
    const Tensor& input, const Tensor& weight, const Tensor* bias,
    const Conv2dParams& p) {
  FUSE_CHECK(input.shape().rank() == 4)
      << "conv2d input must be [N, C, H, W], got "
      << input.shape().to_string();
  FUSE_CHECK(weight.shape().rank() == 4)
      << "conv2d weight must be [C_out, C_in/groups, Kh, Kw], got "
      << weight.shape().to_string();
  const std::int64_t in_c = input.shape().dim(1);
  const std::int64_t out_c = weight.shape().dim(0);
  FUSE_CHECK(p.groups >= 1) << "groups must be positive";
  FUSE_CHECK(in_c % p.groups == 0)
      << "in_channels " << in_c << " not divisible by groups " << p.groups;
  FUSE_CHECK(out_c % p.groups == 0)
      << "out_channels " << out_c << " not divisible by groups " << p.groups;
  FUSE_CHECK(weight.shape().dim(1) == in_c / p.groups)
      << "weight C_in/groups " << weight.shape().dim(1) << " != "
      << in_c / p.groups;
  if (bias != nullptr) {
    FUSE_CHECK(bias->shape().rank() == 1 && bias->shape().dim(0) == out_c)
        << "bias must be [C_out]";
  }
  const std::int64_t out_h =
      conv_out_dim(input.shape().dim(2), weight.shape().dim(2), p.stride_h,
                   p.pad_h, p.dilation_h);
  const std::int64_t out_w =
      conv_out_dim(input.shape().dim(3), weight.shape().dim(3), p.stride_w,
                   p.pad_w, p.dilation_w);
  return {out_h, out_w};
}

}  // namespace

Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor* bias,
              const Conv2dParams& params, const KernelChoice& choice) {
  check_conv_args(input, weight, bias, params);
  if (use_fast_backend(choice.backend)) {
    return kernels::conv2d_fast(input, weight, bias, params, choice.isa);
  }
  return conv2d_reference(input, weight, bias, params);
}

Tensor conv2d_reference(const Tensor& input, const Tensor& weight,
                        const Tensor* bias, const Conv2dParams& params) {
  static util::Counter& counter =
      util::metrics().counter("kernels.reference.conv2d");
  counter.add();
  const auto [out_h, out_w] = check_conv_args(input, weight, bias, params);
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t in_c = input.shape().dim(1);
  const std::int64_t in_h = input.shape().dim(2);
  const std::int64_t in_w = input.shape().dim(3);
  const std::int64_t out_c = weight.shape().dim(0);
  const std::int64_t kernel_h = weight.shape().dim(2);
  const std::int64_t kernel_w = weight.shape().dim(3);
  const std::int64_t group_in = in_c / params.groups;
  const std::int64_t group_out = out_c / params.groups;

  Tensor output(Shape{batch, out_c, out_h, out_w});
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      const std::int64_t group = oc / group_out;
      const float bias_value = bias != nullptr ? bias->at(oc) : 0.0F;
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          double acc = bias_value;
          for (std::int64_t ic = 0; ic < group_in; ++ic) {
            const std::int64_t c = group * group_in + ic;
            for (std::int64_t ky = 0; ky < kernel_h; ++ky) {
              const std::int64_t iy =
                  oy * params.stride_h - params.pad_h + ky * params.dilation_h;
              if (iy < 0 || iy >= in_h) {
                continue;
              }
              for (std::int64_t kx = 0; kx < kernel_w; ++kx) {
                const std::int64_t ix = ox * params.stride_w - params.pad_w +
                                        kx * params.dilation_w;
                if (ix < 0 || ix >= in_w) {
                  continue;
                }
                acc += static_cast<double>(input.at(n, c, iy, ix)) *
                       static_cast<double>(weight.at(oc, ic, ky, kx));
              }
            }
          }
          output.at(n, oc, oy, ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return output;
}

Tensor conv2d_im2col(const Tensor& input, const Tensor& weight,
                     const Tensor* bias, const Conv2dParams& params) {
  FUSE_CHECK(params.groups == 1)
      << "conv2d_im2col models the dense lowering; use conv2d for groups";
  const auto [out_h, out_w] = check_conv_args(input, weight, bias, params);
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t out_c = weight.shape().dim(0);
  // Flatten the filter bank to [taps, C_out] so patches x filters is a
  // single matmul per image; hoisted out of the batch loop.
  const Tensor filters = kernels::flatten_filters(weight);

  Tensor output(Shape{batch, out_c, out_h, out_w});
  Tensor image(Shape{input.shape().dim(1), input.shape().dim(2),
                     input.shape().dim(3)});
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* src = input.data() + n * image.num_elements();
    std::copy(src, src + image.num_elements(), image.data());
    const Tensor patches = tensor::im2col(
        image, weight.shape().dim(2), weight.shape().dim(3), params.stride_h,
        params.stride_w, params.pad_h, params.pad_w, params.dilation_h,
        params.dilation_w);
    const Tensor product = matmul(patches, filters);  // [positions, C_out]
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      const float bias_value = bias != nullptr ? bias->at(oc) : 0.0F;
      for (std::int64_t pos = 0; pos < out_h * out_w; ++pos) {
        output.at(n, oc, pos / out_w, pos % out_w) =
            product.at(pos, oc) + bias_value;
      }
    }
  }
  return output;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  FUSE_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2)
      << "matmul expects rank-2 operands, got " << a.shape().to_string()
      << " x " << b.shape().to_string();
  FUSE_CHECK(a.shape().dim(1) == b.shape().dim(0))
      << "matmul inner dims differ: " << a.shape().to_string() << " x "
      << b.shape().to_string();
  const std::int64_t rows = a.shape().dim(0);
  const std::int64_t inner = a.shape().dim(1);
  const std::int64_t cols = b.shape().dim(1);
  Tensor out(Shape{rows, cols});
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t k = 0; k < inner; ++k) {
      const float a_ik = a.at(i, k);
      if (a_ik == 0.0F) {
        continue;
      }
      for (std::int64_t j = 0; j < cols; ++j) {
        out.at(i, j) += a_ik * b.at(k, j);
      }
    }
  }
  return out;
}

Tensor linear(const Tensor& input, const Tensor& weight, const Tensor* bias,
              const KernelChoice& choice) {
  FUSE_CHECK(input.shape().rank() == 2)
      << "linear input must be [N, F_in], got " << input.shape().to_string();
  FUSE_CHECK(weight.shape().rank() == 2)
      << "linear weight must be [F_out, F_in], got "
      << weight.shape().to_string();
  FUSE_CHECK(input.shape().dim(1) == weight.shape().dim(1))
      << "linear feature mismatch: input " << input.shape().to_string()
      << " weight " << weight.shape().to_string();
  if (bias != nullptr) {
    FUSE_CHECK(bias->shape().rank() == 1 &&
               bias->shape().dim(0) == weight.shape().dim(0))
        << "linear bias must be [F_out]";
  }
  if (use_fast_backend(choice.backend)) {
    return kernels::linear_fast(input, weight, bias, choice.isa);
  }
  return linear_reference(input, weight, bias);
}

Tensor linear_reference(const Tensor& input, const Tensor& weight,
                        const Tensor* bias) {
  static util::Counter& counter =
      util::metrics().counter("kernels.reference.linear");
  counter.add();
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t in_f = input.shape().dim(1);
  const std::int64_t out_f = weight.shape().dim(0);
  Tensor out(Shape{batch, out_f});
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t o = 0; o < out_f; ++o) {
      double acc = bias != nullptr ? bias->at(o) : 0.0;
      for (std::int64_t i = 0; i < in_f; ++i) {
        acc += static_cast<double>(input.at(n, i)) *
               static_cast<double>(weight.at(o, i));
      }
      out.at(n, o) = static_cast<float>(acc);
    }
  }
  return out;
}

namespace {

template <typename Reducer>
Tensor pool2d(const Tensor& input, std::int64_t kernel, std::int64_t stride,
              std::int64_t pad, Reducer reduce, bool average) {
  FUSE_CHECK(input.shape().rank() == 4)
      << "pool input must be [N, C, H, W], got " << input.shape().to_string();
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t channels = input.shape().dim(1);
  const std::int64_t in_h = input.shape().dim(2);
  const std::int64_t in_w = input.shape().dim(3);
  const std::int64_t out_h = conv_out_dim(in_h, kernel, stride, pad);
  const std::int64_t out_w = conv_out_dim(in_w, kernel, stride, pad);
  Tensor out(Shape{batch, channels, out_h, out_w});
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels; ++c) {
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          double acc = average ? 0.0 : -std::numeric_limits<double>::infinity();
          std::int64_t valid = 0;
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            const std::int64_t iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= in_h) {
              continue;
            }
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              const std::int64_t ix = ox * stride - pad + kx;
              if (ix < 0 || ix >= in_w) {
                continue;
              }
              acc = reduce(acc, static_cast<double>(input.at(n, c, iy, ix)));
              ++valid;
            }
          }
          FUSE_CHECK(valid > 0) << "pooling window entirely in padding";
          out.at(n, c, oy, ox) =
              static_cast<float>(average ? acc / static_cast<double>(valid)
                                         : acc);
        }
      }
    }
  }
  return out;
}

}  // namespace

Tensor avg_pool2d(const Tensor& input, std::int64_t kernel,
                  std::int64_t stride, std::int64_t pad) {
  return pool2d(
      input, kernel, stride, pad,
      [](double acc, double v) { return acc + v; }, /*average=*/true);
}

Tensor max_pool2d(const Tensor& input, std::int64_t kernel,
                  std::int64_t stride, std::int64_t pad) {
  return pool2d(
      input, kernel, stride, pad,
      [](double acc, double v) { return std::max(acc, v); },
      /*average=*/false);
}

Tensor global_avg_pool(const Tensor& input) {
  FUSE_CHECK(input.shape().rank() == 4)
      << "global_avg_pool input must be [N, C, H, W]";
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t channels = input.shape().dim(1);
  const std::int64_t spatial = input.shape().dim(2) * input.shape().dim(3);
  Tensor out(Shape{batch, channels, 1, 1});
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels; ++c) {
      double acc = 0.0;
      for (std::int64_t hw = 0; hw < spatial; ++hw) {
        acc += input[(n * channels + c) * spatial + hw];
      }
      out.at(n, c, 0, 0) = static_cast<float>(acc / spatial);
    }
  }
  return out;
}

Tensor add(const Tensor& a, const Tensor& b) {
  FUSE_CHECK(a.shape() == b.shape())
      << "add on mismatched shapes " << a.shape().to_string() << " vs "
      << b.shape().to_string();
  Tensor out = a;
  for (std::int64_t i = 0; i < out.num_elements(); ++i) {
    out[i] += b[i];
  }
  return out;
}

Tensor concat_channels(const Tensor& a, const Tensor& b) {
  FUSE_CHECK(a.shape().rank() == 4 && b.shape().rank() == 4)
      << "concat_channels expects NCHW tensors";
  FUSE_CHECK(a.shape().dim(0) == b.shape().dim(0) &&
             a.shape().dim(2) == b.shape().dim(2) &&
             a.shape().dim(3) == b.shape().dim(3))
      << "concat_channels N/H/W mismatch: " << a.shape().to_string() << " vs "
      << b.shape().to_string();
  const std::int64_t batch = a.shape().dim(0);
  const std::int64_t c_a = a.shape().dim(1);
  const std::int64_t c_b = b.shape().dim(1);
  const std::int64_t spatial = a.shape().dim(2) * a.shape().dim(3);
  Tensor out(Shape{batch, c_a + c_b, a.shape().dim(2), a.shape().dim(3)});
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t i = 0; i < c_a * spatial; ++i) {
      out[(n * (c_a + c_b)) * spatial + i] = a[n * c_a * spatial + i];
    }
    for (std::int64_t i = 0; i < c_b * spatial; ++i) {
      out[(n * (c_a + c_b) + c_a) * spatial + i] = b[n * c_b * spatial + i];
    }
  }
  return out;
}

Tensor scale_channels(const Tensor& input, const Tensor& scale) {
  FUSE_CHECK(input.shape().rank() == 4)
      << "scale_channels input must be NCHW";
  FUSE_CHECK(scale.shape().rank() == 4 && scale.shape().dim(2) == 1 &&
             scale.shape().dim(3) == 1 &&
             scale.shape().dim(0) == input.shape().dim(0) &&
             scale.shape().dim(1) == input.shape().dim(1))
      << "scale must be [N, C, 1, 1] matching input, got "
      << scale.shape().to_string();
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t channels = input.shape().dim(1);
  const std::int64_t spatial = input.shape().dim(2) * input.shape().dim(3);
  Tensor out = input;
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const float s = scale.at(n, c, 0, 0);
      for (std::int64_t hw = 0; hw < spatial; ++hw) {
        out[(n * channels + c) * spatial + hw] *= s;
      }
    }
  }
  return out;
}

Tensor batchnorm_folded(const Tensor& input, const Tensor& scale,
                        const Tensor& shift) {
  FUSE_CHECK(input.shape().rank() == 4)
      << "batchnorm_folded input must be NCHW";
  const std::int64_t channels = input.shape().dim(1);
  FUSE_CHECK(scale.shape().rank() == 1 && scale.shape().dim(0) == channels &&
             shift.shape().rank() == 1 && shift.shape().dim(0) == channels)
      << "batchnorm scale/shift must be [C]";
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t spatial = input.shape().dim(2) * input.shape().dim(3);
  Tensor out = input;
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const float a = scale.at(c);
      const float b = shift.at(c);
      for (std::int64_t hw = 0; hw < spatial; ++hw) {
        float& x = out[(n * channels + c) * spatial + hw];
        x = x * a + b;
      }
    }
  }
  return out;
}

}  // namespace fuse::nn
