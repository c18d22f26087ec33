// INT8 inference kernels: INT8 operands, INT32 accumulation, float
// requantization — the arithmetic a TPUv1-class systolic array performs
// natively. Weights use symmetric quantization (zero_point = 0) so the
// accumulation has no weight-side zero-point cross term; activations are
// affine.
#pragma once

#include "nn/ops.hpp"
#include "tensor/quantize.hpp"

namespace fuse::nn {

using tensor::QuantizedTensor;

/// Grouped 2-D convolution on quantized operands. input [N, C, H, W]
/// (affine), weight [C_out, C_in/g, Kh, Kw] (symmetric, zero_point == 0,
/// checked). Accumulates in int32 and returns the dequantized float
/// output: out = s_in * s_w * sum((q_in - zp_in) * q_w). One loop under
/// every kernel choice: an int32 sum is exact in any order, so every
/// loop order gives these bits.
tensor::Tensor conv2d_int8(const QuantizedTensor& input,
                           const QuantizedTensor& weight,
                           const Conv2dParams& params);

/// Fully connected on quantized operands: input [N, F_in] (affine),
/// weight [F_out, F_in] (symmetric). One int32 loop, as conv2d_int8.
tensor::Tensor linear_int8(const QuantizedTensor& input,
                           const QuantizedTensor& weight);

}  // namespace fuse::nn
