// Functional operators (float32, NCHW).
//
// The *_reference loops are the numeric ground truth for everything else
// in the repo: the systolic-array simulator's outputs, the FuSeConv
// operator, and the training substrate are all validated against them.
// The public conv2d/matmul/linear entry points dispatch between those
// loops and the blocked fast backend in nn/kernels.hpp; the two
// backends are bit-identical, so callers never need to care which ran.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace fuse::nn {

using tensor::Shape;
using tensor::Tensor;

/// Geometry knobs for conv2d. Defaults give a dense 1x1-stride convolution.
struct Conv2dParams {
  std::int64_t stride_h = 1;
  std::int64_t stride_w = 1;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;
  std::int64_t dilation_h = 1;
  std::int64_t dilation_w = 1;
  std::int64_t groups = 1;
};

/// General grouped 2-D convolution.
/// input:  [N, C_in, H, W]
/// weight: [C_out, C_in/groups, Kh, Kw]
/// bias:   [C_out] or nullptr
/// result: [N, C_out, H_out, W_out]
/// Covers standard (groups=1), depthwise (groups=C_in, C_out=C_in),
/// pointwise (Kh=Kw=1), and FuSeConv's 1-D branches (Kh=1 or Kw=1 with
/// groups=C_in).
/// Dispatches on nn::kernel_backend() (see nn/kernels.hpp); both backends
/// produce bit-identical results.
Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor* bias,
              const Conv2dParams& params);

/// The clarity-first loops conv2d dispatches to under the reference
/// backend; kept public as the numeric oracle for differential tests.
Tensor conv2d_reference(const Tensor& input, const Tensor& weight,
                        const Tensor* bias, const Conv2dParams& params);

/// conv2d lowered through im2col + matmul (groups=1 only). Numerically
/// identical to conv2d; exists to validate the lowering the systolic
/// mapping study relies on.
Tensor conv2d_im2col(const Tensor& input, const Tensor& weight,
                     const Tensor* bias, const Conv2dParams& params);

/// Dense matrix product: [M, K] x [K, N] -> [M, N]. Dispatches on
/// nn::kernel_backend().
Tensor matmul(const Tensor& a, const Tensor& b);

/// Reference oracle behind matmul.
Tensor matmul_reference(const Tensor& a, const Tensor& b);

/// Fully connected: input [N, F_in], weight [F_out, F_in], bias [F_out] or
/// nullptr -> [N, F_out]. Dispatches on nn::kernel_backend().
Tensor linear(const Tensor& input, const Tensor& weight, const Tensor* bias);

/// Reference oracle behind linear.
Tensor linear_reference(const Tensor& input, const Tensor& weight,
                        const Tensor* bias);

/// Average pooling with window `kernel`, stride `stride`, zero padding
/// `pad` (count_include_pad=false semantics: divisor is the number of valid
/// taps).
Tensor avg_pool2d(const Tensor& input, std::int64_t kernel,
                  std::int64_t stride, std::int64_t pad = 0);

/// Max pooling.
Tensor max_pool2d(const Tensor& input, std::int64_t kernel,
                  std::int64_t stride, std::int64_t pad = 0);

/// Global average pool: [N, C, H, W] -> [N, C, 1, 1].
Tensor global_avg_pool(const Tensor& input);

/// Elementwise sum; shapes must match.
Tensor add(const Tensor& a, const Tensor& b);

/// Channel concatenation of NCHW tensors with equal N/H/W.
Tensor concat_channels(const Tensor& a, const Tensor& b);

/// Multiplies each channel of `input` by the per-(batch,channel) scale in
/// `scale` ([N, C, 1, 1]); the squeeze-excite recalibration step.
Tensor scale_channels(const Tensor& input, const Tensor& scale);

/// Inference-time batchnorm folded to per-channel scale/shift:
/// y = x * scale[c] + shift[c].
Tensor batchnorm_folded(const Tensor& input, const Tensor& scale,
                        const Tensor& shift);

/// Squeeze-and-excite (MobileNet-V3 style): global-average-pool the input,
/// FC C -> se_c with ReLU, FC se_c -> C with hard-sigmoid, and rescale the
/// input channels by the resulting gates.
/// reduce_w [se_c, C], reduce_b [se_c], expand_w [C, se_c], expand_b [C].
Tensor squeeze_excite(const Tensor& input, const Tensor& reduce_w,
                      const Tensor& reduce_b, const Tensor& expand_w,
                      const Tensor& expand_b);

}  // namespace fuse::nn
