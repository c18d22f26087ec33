// Functional operators (float32, NCHW).
//
// The *_reference loops are the numeric ground truth for everything else
// in the repo: the systolic-array simulator's outputs, the FuSeConv
// operator, and the training substrate are all validated against them.
// The public conv2d/linear entry points dispatch between those loops and
// the blocked fast backend in nn/kernels.hpp, as the KernelChoice their
// caller passes says; the two backends are bit-identical under the
// scalar ISA. matmul is one clarity-first loop under every choice.
#pragma once

#include <cstdint>
#include <string>

#include "tensor/tensor.hpp"

namespace fuse::nn {

using tensor::Shape;
using tensor::Tensor;

/// Which implementation the functional operators dispatch to.
enum class KernelBackend {
  kReference,  // the clarity-first loops (numeric ground truth)
  kFast,       // the blocked kernels of nn/kernels.hpp
};

/// Which instruction set the fast backend's inner kernels use.
enum class KernelIsa {
  kScalar,  // portable C++ (bit-exact with the reference oracles)
  kAvx2,    // AVX2/FMA micro-kernels (ULP-bounded floats, exact f64)
};

/// True when `isa` can execute here: kScalar always; kAvx2 when the
/// binary contains the AVX2 kernels (x86 build) AND the CPU + OS report
/// AVX2, FMA, and OS-enabled YMM state.
bool kernel_isa_available(KernelIsa isa);

/// The best ISA this machine can execute (one CPUID probe per process).
KernelIsa best_isa();

/// The route of one dispatching call; fast on the best ISA by default. A
/// fast call on an ISA the machine lacks throws at the kernel entry.
struct KernelChoice {
  KernelBackend backend = KernelBackend::kFast;
  KernelIsa isa = best_isa();
};

/// Parses "fast" / "reference" (also "ref"); false on anything else.
bool parse_kernel_backend(const std::string& name, KernelBackend* out);

const char* kernel_backend_name(KernelBackend backend);

/// Parses "scalar" / "avx2" / "auto" (best_isa()); false on anything else.
bool parse_kernel_isa(const std::string& name, KernelIsa* out);

const char* kernel_isa_name(KernelIsa isa);

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
/// Runs on `choice`'s backend and ISA (see nn/kernels.hpp).
Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor* bias,
              const Conv2dParams& params, const KernelChoice& choice = {});

/// The clarity-first loops conv2d runs on the reference backend; kept
/// public as the numeric oracle for differential tests.
Tensor conv2d_reference(const Tensor& input, const Tensor& weight,
                        const Tensor* bias, const Conv2dParams& params);

/// conv2d lowered through im2col + matmul (groups=1 only). Numerically
/// identical to conv2d; exists to validate the lowering the systolic
/// mapping study relies on.
Tensor conv2d_im2col(const Tensor& input, const Tensor& weight,
                     const Tensor* bias, const Conv2dParams& params);

/// Dense matrix product: [M, K] x [K, N] -> [M, N]. Float accumulation
/// from +0.0 in ascending k per output, skipping zero entries of A (which
/// leaves the bits of a finite B's sums unchanged). One loop under every
/// kernel choice: its caller is conv2d_im2col, which validates a
/// lowering rather than running inference.
Tensor matmul(const Tensor& a, const Tensor& b);

/// Fully connected: input [N, F_in], weight [F_out, F_in], bias [F_out] or
/// nullptr -> [N, F_out]. Runs on `choice`'s backend and ISA.
Tensor linear(const Tensor& input, const Tensor& weight, const Tensor* bias,
              const KernelChoice& choice = {});

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

}  // namespace fuse::nn
