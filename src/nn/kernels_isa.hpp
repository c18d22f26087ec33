// Internal interface between the kernel dispatcher (kernels.cpp) and the
// AVX2/FMA micro-kernel translation unit (kernels_avx2.cpp).
//
// kernels_avx2.cpp is compiled WITHOUT -mavx2 on the command line; every
// function carries a target("avx2,fma") attribute instead, so the binary
// stays runnable on any x86-64 and the vector paths only execute after
// util::cpu_features() has proven them safe. To keep AVX2-compiled code
// from leaking into scalar paths via COMDAT-folded template
// instantiations, this header includes nothing from the repo — the
// interface is raw pointers and a plain-int geometry struct.
//
// Numerics contract (docs/kernels.md): the float kernels here accumulate
// in SINGLE precision with FMA, so outputs are ULP-bounded against the
// reference oracles (util/ulp.hpp derives the bound) rather than
// bit-exact. The f64 kernels accumulate float x float products in
// double, where each product is exact, so one FMA rounds exactly as the
// scalar multiply-then-add and they are bit-identical to the scalar
// path. Per-element accumulation order is a function of shape only, so
// results are bit-exact across runs at a fixed ISA.
#pragma once

#include <cstdint>

namespace fuse::nn::kernels {

/// The Conv2dParams subset the channelwise kernels need, as plain ints.
struct ConvGeom {
  std::int64_t stride_h = 1;
  std::int64_t stride_w = 1;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;
  std::int64_t dilation_h = 1;
  std::int64_t dilation_w = 1;
};

namespace avx2 {

/// True when this binary contains the AVX2 micro-kernels (x86 targets).
/// Runtime availability is a separate question — see
/// nn::kernel_isa_available.
bool compiled();

/// GEMM block over the packed kNr=8 k-major B panels that pack_b_panels
/// and the im2col conv's panel builder lay out: for r < rows, j < n,
///   out[r*ldo + j] = bias[r] + sum_k a(r, k) * b(k, j)
/// (a null bias seeds 0). Every GEMM conv runs it W x X: A is the filter
/// bank read in place, so one row is one output channel and its outputs
/// are a contiguous run of that channel's NCHW plane. 6x16 register
/// micro-tiles over two adjacent panels, float accumulators, one FMA per
/// (output, k) in ascending k.
void block_gemm(const float* a, std::int64_t lda, std::int64_t rows,
                const float* b_panels, std::int64_t kk, std::int64_t n,
                const float* bias, float* out, std::int64_t ldo);

/// The double-accumulation GEMM over the same packed panels: for
/// r < rows, j < n,
///   out[r*ldo + j] = float(sum_k double(a(r, k)) * double(b(k, j)))
/// with each accumulator starting at +0.0, one FMA per (output, k) in
/// ascending k and one rounding to float per output. 6x8 register
/// tiles (two 4-lane accumulators per row). Bit-identical to the scalar
/// kernel: every product is exact in double.
void block_gemm_f64(const float* a, std::int64_t lda, std::int64_t rows,
                    const float* b_panels, std::int64_t kk, std::int64_t n,
                    float* out, std::int64_t ldo);

/// One panel of eight linear outputs straight from the row-major weight:
/// for n < batch, j < ncols,
///   out[n*ldo + j] = seed[j] + sum_k in[n*in_f + k] * w_rows[j][k]
/// with one FMA per k in ascending order. Each 8x8 weight block is
/// transposed in registers so lane j carries output j. All eight
/// w_rows must be readable for in_f floats (tail lanes repeat a valid
/// row; their results are dropped); seed holds eight bias lanes.
void linear_panel(const float* in, std::int64_t batch, std::int64_t in_f,
                  const float* const* w_rows, const float* seed, float* out,
                  std::int64_t ldo, std::int64_t ncols);

/// Channelwise conv (depthwise K x K, FuSe 1 x K or K x 1) over `planes`
/// consecutive (image, channel) planes, plane q using channel
/// q % channels' kh x kw weights and bias (null: +0.0). Planes run eight
/// at a time: each block is packed position-major (lane j = plane j)
/// through in-register 8x8 transposes, one vector computes one output
/// position of all eight planes, and the block is unpacked the same way.
/// Every lane starts at its bias and takes one FMA per in-bounds tap in
/// (ky, kx) order; a tap out of bounds is skipped for the whole vector,
/// since every lane shares the position. [x_lo, x_hi) are the output
/// columns whose kx taps are all in bounds. Any stride or dilation.
///   * _f32: float lanes, the per-plane kernels' per-output sequence.
///   * _f64: double lanes (two 4-lane halves per position), one rounding
///     to float per output: bit-identical to the scalar kernel, since
///     every float x float product is exact in double.
void channelwise_blocked_f32(const float* in, std::int64_t planes,
                             std::int64_t channels, std::int64_t in_h,
                             std::int64_t in_w, const float* w,
                             std::int64_t kh, std::int64_t kw,
                             const ConvGeom& g, const float* bias, float* out,
                             std::int64_t out_h, std::int64_t out_w,
                             std::int64_t x_lo, std::int64_t x_hi);
void channelwise_blocked_f64(const float* in, std::int64_t planes,
                             std::int64_t channels, std::int64_t in_h,
                             std::int64_t in_w, const float* w,
                             std::int64_t kh, std::int64_t kw,
                             const ConvGeom& g, const float* bias, float* out,
                             std::int64_t out_h, std::int64_t out_w,
                             std::int64_t x_lo, std::int64_t x_hi);

/// One FuSe row channel (1 x K), one (image, channel) plane: interior
/// columns [x_lo, x_hi) eight outputs per vector, edge columns and the
/// remainder one output at a time, every output the bias then one FMA
/// per in-bounds tap in kx order. Contiguous loads need stride_w == 1 and
/// dilation_w == 1; the dispatcher sends it only wide planes, where it
/// beats channelwise_blocked_f32.
void fuse_row_channel(const float* plane, std::int64_t in_h,
                      std::int64_t in_w, const float* w, std::int64_t kw,
                      const ConvGeom& g, float bias_value, float* out,
                      std::int64_t out_h, std::int64_t out_w,
                      std::int64_t x_lo, std::int64_t x_hi);

/// One FuSe column channel (K x 1), taps in ky order. Same
/// stride/dilation precondition and the same wide-plane role.
void fuse_col_channel(const float* plane, std::int64_t in_h,
                      std::int64_t in_w, const float* w, std::int64_t kh,
                      const ConvGeom& g, float bias_value, float* out,
                      std::int64_t out_h, std::int64_t out_w,
                      std::int64_t x_lo, std::int64_t x_hi);

}  // namespace avx2

}  // namespace fuse::nn::kernels
