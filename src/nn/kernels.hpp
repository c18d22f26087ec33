// Fast host kernel backend: cache-blocked GEMM micro-kernels, every
// dense, grouped and pointwise convolution computed as W x X straight
// into NCHW (the filter bank read in place, the im2col columns packed
// one position block at a time, never the whole patch matrix), a linear
// layer that reads its weight rows in place, and channelwise kernels for
// depthwise and FuSe 1-D convolutions. Every kernel runs serially on the
// calling thread, tile by tile.
//
// The backend practices on the host what the paper practices on the
// array: factor every operator onto a small set of efficient inner
// kernels (GEMM panels for dense/pointwise/grouped convolutions,
// panels of eight weight rows for linear layers, channelwise kernels for
// the depthwise and FuSe 1xK / Kx1 branches) instead of running the
// naive 6-deep loops of the reference operators. The ISA and the
// geometry alone pick each route, and only the loop order differs
// between routes: every float output runs bias first, then its terms in
// ascending order, one FMA (AVX2) or one exact double product (scalar)
// each.
//
// Determinism contract (docs/kernels.md):
//   * Every output element's k-accumulation runs in a fixed order, so
//     results are BIT-EXACT across runs at a fixed ISA.
//   * The kernels are reentrant: scratch buffers live for one call, so
//     several threads (the serving engine's payload workers) may run
//     kernels at once.
//   * Under the SCALAR ISA each fast kernel reproduces the reference
//     operator's accumulation type and order exactly — double
//     accumulators seeded with the bias — so scalar fast outputs are
//     bit-exact with the reference backend (0 ULP; the only theoretical
//     exception is the sign of an exact-zero output, which IEEE-754
//     +/-0 addition identities make unobservable in practice).
//     tools/check.sh leans on this: golden results must be
//     byte-identical across backends with --kernel-isa=scalar pinned.
//   * Under the AVX2 ISA the float kernels accumulate in single
//     precision with FMA, so outputs are ULP-BOUNDED against the
//     reference (util/ulp.hpp derives the bound; docs/kernels.md
//     documents it). The simulator's gemm_f64 and channelwise_f64,
//     whose double sums of exact float x float products round the same
//     with or without FMA, stay bit-identical under every ISA.
//
// Selection: each call passes an nn::KernelChoice (nn/ops.hpp): its
// backend picks the reference oracle or these kernels, its ISA the
// portable scalar kernels or the AVX2/FMA micro-kernels
// (kernels_avx2.cpp). The default is fast on the best ISA the CPU
// supports (util/cpu_features.hpp); an ISA the machine lacks is an error
// at the kernel entry. The backward passes always run the scalar kernels
// (docs/kernels.md has the dispatch table). The simulator's f64 kernels,
// and the channelwise convs at stride_w != 1 or dilation_w != 1, change
// speed with the ISA, never a bit. nn::matmul is one loop and takes no
// choice.
#pragma once

#include <cstdint>

#include "nn/ops.hpp"

namespace fuse::nn::kernels {

/// C[m, n] = A[m, k] * B[k, n], row-major, all operands dense. Each
/// output starts from a 0.0 double accumulator, adds the exact double
/// products (double)a * (double)b in ascending k, and is rounded to float
/// once: the arithmetic of an output-stationary PE, which the PE-grid
/// simulator's fast engine runs through here. The packed-panel path runs
/// on `isa` (m = 1 streams B's rows and n = 1 reads A's rows eight at a
/// time, both scalar), yet the bits depend on the operands only: a
/// float x float product is exact in double, so the
/// AVX2 kernel's one FMA per term rounds exactly as the scalar
/// multiply-then-add, and both round to float the same way.
void gemm_f64(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n, KernelIsa isa = best_isa());

/// Channelwise conv (depthwise K x K, FuSe 1 x K or K x 1) of one image:
/// input [channels, in_h, in_w], weight [channels, kh, kw], out
/// [channels, out_h, out_w] with the extents p's stride, padding and
/// dilation give (p.groups is ignored). Each output starts from a +0.0
/// double accumulator, adds one exact double product per in-bounds tap
/// in (ky, kx) order, and is rounded to float once: the arithmetic of
/// the output-stationary PE, or the broadcast row, that computes it on
/// the array, less the padding taps. The simulator's fast engine runs
/// every channelwise layer through here, and every call of broadcast FuSe
/// lines: L lines of width W under 1 x K kernels are L one-row 1 x W
/// planes, unpadded. Runs on `isa` (the AVX2 kernel runs eight channels
/// per vector in double lanes at any stride) with bits that depend on
/// the operands only, for the reason gemm_f64 gives.
void channelwise_f64(const float* input, const float* weight, float* out,
                     std::int64_t channels, std::int64_t in_h,
                     std::int64_t in_w, std::int64_t kh, std::int64_t kw,
                     const Conv2dParams& p, KernelIsa isa = best_isa());

/// Fast implementations of the dispatching operators, on `isa`. Shapes
/// and semantics are identical to the reference versions in nn/ops.hpp;
/// arguments are assumed pre-validated by the dispatching wrapper.
Tensor conv2d_fast(const Tensor& input, const Tensor& weight,
                   const Tensor* bias, const Conv2dParams& params,
                   KernelIsa isa);
Tensor linear_fast(const Tensor& input, const Tensor& weight,
                   const Tensor* bias, KernelIsa isa);

/// Fast training backward passes (train::Module dispatches here).
/// Both ACCUMULATE into *weight_grad / *bias_grad (matching the
/// reference `+=` semantics) and return grad_input. Bit-exact with the
/// reference loops: grad_input is computed image by image and the
/// weight/bias gradients output feature by output feature, each in the
/// reference visiting order.
Tensor conv2d_backward_fast(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output,
                            const Conv2dParams& params, Tensor* weight_grad,
                            Tensor* bias_grad);
Tensor linear_backward_fast(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, Tensor* weight_grad,
                            Tensor* bias_grad);

/// dst[c, r] = src[r, c] for a dense row-major [rows, cols] src and a
/// [cols, rows] dst (cache-blocked). The layout step of the simulator's
/// W x X matmul on the engines that run it as X^T x W^T, and of the
/// helper below.
void transpose(const float* src, std::int64_t rows, std::int64_t cols,
               float* dst);

/// Flattens an [C_out, C_in/g, Kh, Kw] filter bank to the [taps, C_out]
/// matrix the im2col lowering multiplies against (taps ordered
/// channel-major, then kernel row, then kernel column). The functional
/// im2col path's weight operand.
Tensor flatten_filters(const Tensor& weight);

}  // namespace fuse::nn::kernels
