// Fast host kernel backend: cache-blocked GEMM micro-kernels, a
// pointwise convolution computed as W x X straight out of NCHW, an
// im2col-on-the-fly convolution that never materializes the full patch
// matrix for every other dense/grouped geometry, a linear layer that
// reads its weight rows in place, and shape-specialized depthwise /
// FuSe 1-D kernels. Every kernel runs serially on the calling thread,
// tile by tile.
//
// The backend practices on the host what the paper practices on the
// array: factor every operator onto a small set of efficient inner
// kernels (GEMM panels for dense/pointwise/grouped convolutions,
// panels of eight weight rows for linear layers, line kernels for the
// FuSe 1xK / Kx1 branches) instead of running the naive 6-deep loops of
// the reference operators. Only the loop order differs between routes:
// every float output runs bias first, then its terms in ascending
// order, one FMA (AVX2) or one exact double product (scalar) each.
//
// Determinism contract (docs/kernels.md):
//   * Every output element's k-accumulation runs in a fixed order, so
//     results are BIT-EXACT across runs at a fixed ISA.
//   * The kernels are reentrant: scratch buffers live for one call, so
//     several threads (the serving engine's payload workers) may run
//     kernels at once.
//   * Under the SCALAR ISA each fast kernel reproduces the reference
//     operator's accumulation type and order exactly — double
//     accumulators seeded with the bias for conv2d/linear, in-order
//     float accumulation for matmul, int32 for the INT8 kernels — so
//     scalar fast outputs are bit-exact with the reference backend
//     (0 ULP; the only theoretical exception is the sign of an
//     exact-zero output, which IEEE-754 +/-0 addition identities make
//     unobservable in practice). tools/check.sh leans on this: golden
//     results must be byte-identical across backends with
//     --kernel-isa=scalar pinned.
//   * Under the AVX2 ISA the float kernels accumulate in single
//     precision with FMA, so outputs are ULP-BOUNDED against the
//     reference (util/ulp.hpp derives the bound; docs/kernels.md
//     documents it). The INT8 kernels accumulate in int32 — exact in
//     any order — and stay bit-identical under every ISA, and so do the
//     simulator's gemm_f64 / conv1d_lines_f64, whose double sums of
//     exact float x float products round the same with or without FMA.
//
// Backend selection: nn::conv2d / matmul / linear / the INT8 kernels and
// the train::Module backward passes all dispatch on kernel_backend().
// Default is kFast; set_kernel_backend (or the --kernel-backend flag of
// the binaries that run kernels) pins the reference oracle.
//
// ISA selection: inside the fast backend, kernel_isa() picks between the
// portable scalar kernels and the AVX2/FMA micro-kernels
// (kernels_avx2.cpp). Default is the best ISA the CPU supports (CPUID
// probe in util/cpu_features.hpp); set_kernel_isa (or --kernel-isa)
// overrides it for differential testing, and requesting an ISA the
// machine lacks is an error. The backward passes and a few geometries
// (stride_w != 1 or dilation_w != 1 channelwise / int8 conv interiors)
// always run the scalar kernels — see the dispatch table in
// docs/kernels.md. The simulator's f64 kernels read kernel_isa() too,
// whatever the backend; for them it changes speed, never a bit.
//
// The two settings are process-wide; only code sets them (directly, or
// from the flags of the binaries that run kernels).
#pragma once

#include <cstdint>
#include <string>

#include "nn/ops.hpp"
#include "tensor/quantize.hpp"

namespace fuse::nn {

/// Which implementation the functional operators dispatch to.
enum class KernelBackend {
  kReference,  // the clarity-first loops (numeric ground truth)
  kFast,       // this module's blocked kernels
};

/// Current backend (default fast).
KernelBackend kernel_backend();

/// Overrides the backend for the whole process. Not safe to call while
/// kernels are executing.
void set_kernel_backend(KernelBackend backend);

/// Parses "fast" / "reference" (also "ref"). Returns false on anything
/// else.
bool parse_kernel_backend(const std::string& name, KernelBackend* out);

const char* kernel_backend_name(KernelBackend backend);

/// Which instruction set the fast backend's inner kernels use.
enum class KernelIsa {
  kScalar,  // portable C++ (bit-exact with the reference oracles)
  kAvx2,    // AVX2/FMA micro-kernels (ULP-bounded floats, exact int8)
};

/// Current ISA (default: the best available per the CPUID probe).
KernelIsa kernel_isa();

/// Overrides the ISA for the whole process. FUSE_CHECK-fails if `isa` is
/// not available on this machine (see kernel_isa_available). Not safe to
/// call while kernels are executing.
void set_kernel_isa(KernelIsa isa);

/// True when `isa` can execute here: kScalar always; kAvx2 when the
/// binary contains the AVX2 kernels (x86 build) AND the CPU + OS report
/// AVX2, FMA, and OS-enabled YMM state.
bool kernel_isa_available(KernelIsa isa);

/// Parses "scalar" / "avx2" / "auto" ("auto" resolves to the best
/// available ISA at parse time). Returns false on anything else.
bool parse_kernel_isa(const std::string& name, KernelIsa* out);

const char* kernel_isa_name(KernelIsa isa);

namespace kernels {

/// C[m, n] = A[m, k] * B[k, n], row-major, all operands dense. C is
/// overwritten. Float accumulation in ascending-k order per output (the
/// reference matmul's order), blocked into packed B column panels and
/// register tiles, walked row block by row block.
void gemm_f32(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n);

/// C[m, n] = A[m, k] * B[k, n], row-major, all operands dense. Each
/// output starts from a 0.0 double accumulator, adds the exact double
/// products (double)a * (double)b in ascending k, and is rounded to float
/// once: the arithmetic of an output-stationary PE, which the PE-grid
/// simulator's fast engine runs through here. The packed-panel path
/// dispatches on kernel_isa() (m = 1 and n = 1 stay scalar), yet the
/// bits depend on the operands only: a float x float product is exact in
/// double, so the AVX2 kernel's one FMA per term rounds exactly as the
/// scalar multiply-then-add, and both round to float the same way.
void gemm_f64(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n);

/// out[l, c] = sum over ascending k of (double)kernels[l, k] *
/// (double)lines[l, c + k], from a 0.0 double accumulator, rounded to
/// float once; lines [L, W], kernels [L, K] and out [L, W - K + 1], all
/// dense row-major, with 1 <= K <= W. The arithmetic of one row of the
/// FuSe broadcast dataflow, which the simulator's fast engine runs line
/// by line over the whole output width. Dispatches on kernel_isa() (the
/// AVX2 kernel computes eight outputs per step) with bits that depend on
/// the operands only, for the reason gemm_f64 gives.
void conv1d_lines_f64(const float* lines, const float* kernels, float* out,
                      std::int64_t num_lines, std::int64_t width,
                      std::int64_t taps);

/// Fast implementations of the public functional operators. Shapes and
/// semantics are identical to the reference versions in nn/ops.hpp /
/// nn/quantized.hpp; arguments are assumed pre-validated by the
/// dispatching wrapper.
Tensor matmul_fast(const Tensor& a, const Tensor& b);
Tensor conv2d_fast(const Tensor& input, const Tensor& weight,
                   const Tensor* bias, const Conv2dParams& params);
Tensor linear_fast(const Tensor& input, const Tensor& weight,
                   const Tensor* bias);
Tensor conv2d_int8_fast(const tensor::QuantizedTensor& input,
                        const tensor::QuantizedTensor& weight,
                        const Conv2dParams& params);
Tensor linear_int8_fast(const tensor::QuantizedTensor& input,
                        const tensor::QuantizedTensor& weight);

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
/// [cols, rows] dst (cache-blocked). The layout step of the systolic
/// executor and of the two helpers below.
void transpose(const float* src, std::int64_t rows, std::int64_t cols,
               float* dst);

/// Flattens an [C_out, C_in/g, Kh, Kw] filter bank to the [taps, C_out]
/// matrix the im2col lowering multiplies against (taps ordered
/// channel-major, then kernel row, then kernel column). Shared by the
/// functional im2col path and the systolic executor's marshalling.
Tensor flatten_filters(const Tensor& weight);

/// [R, C] -> [C, R]. The executor uses this to lay fully-connected
/// weights out as [F_in, F_out] for the array.
Tensor transpose_2d(const Tensor& w);

}  // namespace kernels

}  // namespace fuse::nn
