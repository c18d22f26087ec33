#include "nn/quantized.hpp"

#include "tensor/im2col.hpp"
#include "util/check.hpp"

namespace fuse::nn {

using tensor::QuantizedTensor;
using tensor::Shape;
using tensor::Tensor;

namespace {

/// Common operand validation for the INT8 kernels.
void check_quantized_operands(const QuantizedTensor& input,
                              const QuantizedTensor& weight) {
  FUSE_CHECK(weight.params.zero_point == 0)
      << "INT8 kernels require symmetric weight quantization "
         "(zero_point == 0), got "
      << weight.params.zero_point;
  FUSE_CHECK(input.params.scale > 0.0F && weight.params.scale > 0.0F)
      << "quantization scales must be positive";
}

}  // namespace

Tensor conv2d_int8(const QuantizedTensor& input,
                   const QuantizedTensor& weight,
                   const Conv2dParams& params) {
  check_quantized_operands(input, weight);
  FUSE_CHECK(input.shape.rank() == 4 && weight.shape.rank() == 4)
      << "conv2d_int8 expects NCHW input and OIHW weight";
  const std::int64_t batch = input.shape.dim(0);
  const std::int64_t in_c = input.shape.dim(1);
  const std::int64_t in_h = input.shape.dim(2);
  const std::int64_t in_w = input.shape.dim(3);
  const std::int64_t out_c = weight.shape.dim(0);
  const std::int64_t kernel_h = weight.shape.dim(2);
  const std::int64_t kernel_w = weight.shape.dim(3);
  FUSE_CHECK(in_c % params.groups == 0 && out_c % params.groups == 0 &&
             weight.shape.dim(1) == in_c / params.groups)
      << "conv2d_int8 group geometry mismatch";
  const std::int64_t group_in = in_c / params.groups;
  const std::int64_t group_out = out_c / params.groups;
  const std::int64_t out_h = tensor::conv_out_dim(
      in_h, kernel_h, params.stride_h, params.pad_h, params.dilation_h);
  const std::int64_t out_w = tensor::conv_out_dim(
      in_w, kernel_w, params.stride_w, params.pad_w, params.dilation_w);

  const std::int32_t zp_in = input.params.zero_point;
  const float requant_scale = input.params.scale * weight.params.scale;

  const auto in_at = [&](std::int64_t n, std::int64_t c, std::int64_t y,
                         std::int64_t x) -> std::int32_t {
    return static_cast<std::int32_t>(input.at_flat(
        ((n * in_c + c) * in_h + y) * in_w + x));
  };
  const auto w_at = [&](std::int64_t oc, std::int64_t ic, std::int64_t ky,
                        std::int64_t kx) -> std::int32_t {
    return static_cast<std::int32_t>(weight.at_flat(
        ((oc * group_in + ic) * kernel_h + ky) * kernel_w + kx));
  };

  Tensor output(Shape{batch, out_c, out_h, out_w});
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      const std::int64_t group = oc / group_out;
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          std::int32_t acc = 0;  // INT32 accumulator, as in the hardware
          for (std::int64_t ic = 0; ic < group_in; ++ic) {
            const std::int64_t c = group * group_in + ic;
            for (std::int64_t ky = 0; ky < kernel_h; ++ky) {
              const std::int64_t iy = oy * params.stride_h - params.pad_h +
                                      ky * params.dilation_h;
              if (iy < 0 || iy >= in_h) {
                continue;  // zero padding: (zp - zp) * w == 0
              }
              for (std::int64_t kx = 0; kx < kernel_w; ++kx) {
                const std::int64_t ix = ox * params.stride_w -
                                        params.pad_w +
                                        kx * params.dilation_w;
                if (ix < 0 || ix >= in_w) {
                  continue;
                }
                acc += (in_at(n, c, iy, ix) - zp_in) * w_at(oc, ic, ky, kx);
              }
            }
          }
          output.at(n, oc, oy, ox) =
              requant_scale * static_cast<float>(acc);
        }
      }
    }
  }
  return output;
}

Tensor linear_int8(const QuantizedTensor& input,
                   const QuantizedTensor& weight) {
  check_quantized_operands(input, weight);
  FUSE_CHECK(input.shape.rank() == 2 && weight.shape.rank() == 2 &&
             input.shape.dim(1) == weight.shape.dim(1))
      << "linear_int8 shape mismatch";
  const std::int64_t batch = input.shape.dim(0);
  const std::int64_t in_f = input.shape.dim(1);
  const std::int64_t out_f = weight.shape.dim(0);
  const std::int32_t zp_in = input.params.zero_point;
  const float requant_scale = input.params.scale * weight.params.scale;

  Tensor output(Shape{batch, out_f});
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t o = 0; o < out_f; ++o) {
      std::int32_t acc = 0;
      for (std::int64_t i = 0; i < in_f; ++i) {
        acc += (static_cast<std::int32_t>(input.at_flat(n * in_f + i)) -
                zp_in) *
               static_cast<std::int32_t>(weight.at_flat(o * in_f + i));
      }
      output.at(n, o) = requant_scale * static_cast<float>(acc);
    }
  }
  return output;
}

}  // namespace fuse::nn
