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
// bit-exact; the int8 kernels accumulate in int32, which is exact in any
// order, so they stay bit-identical to the scalar path. The f64 kernels
// accumulate float x float products in double, where each product is
// exact, so one FMA rounds exactly as the scalar multiply-then-add and
// they too are bit-identical to the scalar path. Per-element
// accumulation order is a function of shape only, so results are
// bit-exact across runs at a fixed ISA.
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

/// Which operand index a GEMM block's bias runs along: one value per
/// output column (im2col conv: columns are output channels) or one per
/// output row (pointwise conv in the W x X orientation: rows are output
/// channels).
enum class BiasAxis { kCols, kRows };

namespace avx2 {

/// True when this binary contains the AVX2 micro-kernels (x86 targets).
/// Runtime availability is a separate question — see
/// nn::kernel_isa_available.
bool compiled();

/// GEMM block over the packed kNr=8 k-major B panels built by
/// pack_b_panels / pack_bt_panels: for r < rows, j < n,
///   out[r*row_stride + j*col_stride] = seed + sum_k a(r, k) * b(k, j)
/// with seed = bias[j] (kCols) or bias[r] (kRows); a null bias seeds 0.
/// 6x16 register micro-tiles over two adjacent panels, float
/// accumulators, one FMA per (output, k) in ascending k.
void block_gemm(const float* a, std::int64_t lda, std::int64_t rows,
                const float* b_panels, std::int64_t kk, std::int64_t n,
                const float* bias, BiasAxis axis, float* out,
                std::int64_t row_stride, std::int64_t col_stride);

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

/// Broadcast 1-D lines: for l < num_lines, c < out_w = width - taps + 1,
///   out[l*out_w + c] = float(sum_k double(w[k]) * double(x[c + k]))
/// with w = kernels + l*taps and x = lines + l*width, each accumulator
/// starting at +0.0 and taps in ascending order, eight outputs per step.
/// Bit-identical to the scalar loop.
void conv1d_lines_f64(const float* lines, std::int64_t num_lines,
                      std::int64_t width, const float* kernels,
                      std::int64_t taps, float* out);

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

/// One depthwise channel, interior columns [x_lo, x_hi) vectorized eight
/// outputs at a time. Caller guarantees stride_w == 1 && dilation_w == 1
/// (other geometries take the scalar kernel).
void depthwise_channel(const float* plane, std::int64_t in_h,
                       std::int64_t in_w, const float* w, std::int64_t kh,
                       std::int64_t kw, const ConvGeom& g, float bias_value,
                       float* out, std::int64_t out_h, std::int64_t out_w,
                       std::int64_t x_lo, std::int64_t x_hi);

/// One FuSe row channel (1 x K). Same stride/dilation precondition.
void fuse_row_channel(const float* plane, std::int64_t in_h,
                      std::int64_t in_w, const float* w, std::int64_t kw,
                      const ConvGeom& g, float bias_value, float* out,
                      std::int64_t out_h, std::int64_t out_w,
                      std::int64_t x_lo, std::int64_t x_hi);

/// One FuSe column channel (K x 1). Same stride/dilation precondition.
void fuse_col_channel(const float* plane, std::int64_t in_h,
                      std::int64_t in_w, const float* w, std::int64_t kh,
                      const ConvGeom& g, float bias_value, float* out,
                      std::int64_t out_h, std::int64_t out_w,
                      std::int64_t x_lo, std::int64_t x_hi);

/// One (image, out-channel) int8 conv plane; `image` already points at
/// the group's first input plane. Interior vectorized via epi32 lanes —
/// int32 accumulation, bit-exact with the scalar path. Caller guarantees
/// stride_w == 1 && dilation_w == 1.
void conv2d_int8_plane(const std::int8_t* image, std::int64_t group_in,
                       std::int64_t in_h, std::int64_t in_w,
                       const std::int8_t* w_oc, std::int64_t kh,
                       std::int64_t kw, const ConvGeom& g,
                       std::int32_t zp_in, float requant_scale,
                       float* out_plane, std::int64_t out_h,
                       std::int64_t out_w, std::int64_t x_lo,
                       std::int64_t x_hi);

/// sum_i (row[i] - zp_in) * w_row[i] over in_f entries via madd_epi16;
/// bit-exact with the scalar int32 loop.
std::int32_t linear_int8_dot(const std::int8_t* row,
                             const std::int8_t* w_row, std::int64_t in_f,
                             std::int32_t zp_in);

}  // namespace avx2

}  // namespace fuse::nn::kernels
