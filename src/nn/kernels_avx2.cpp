// AVX2/FMA micro-kernels behind the fast backend's ISA dispatch
// (kernels_isa.hpp documents the interface and numerics contract).
//
// Register blocking: the GEMM tile is 6x16 — twelve YMM accumulators over
// two adjacent packed panels, one broadcast per A element and two panel
// loads per k step — giving twelve independent FMA chains, enough to
// cover the 4-5 cycle FMA latency at two issues per cycle. Linear walks
// eight weight rows per output panel and transposes each 8x8 block in
// registers, so every lane keeps its output's own FMA sequence. The
// channelwise kernels vectorize the interior-column range eight outputs
// at a time (contiguous loads need stride_w == 1 && dilation_w == 1; the
// dispatcher falls back to the scalar kernels otherwise) and handle edge
// columns with the same float-accumulation scalar code, so one channel =
// one deterministic accumulation order.
//
// The simulator's f64 kernels widen floats to double: the GEMM tile is
// 6x8 (twelve 4-lane accumulators, two widened panel loads and one
// widened A broadcast per row per k step), the line kernel eight outputs
// per step. A float x float product is exact in double, so each FMA
// rounds exactly as the scalar multiply-then-add, _mm256_cvtpd_ps rounds
// as static_cast<float> does (both follow MXCSR), and any FP contraction
// the compiler applies to double sums of such products is exact too:
// these kernels match the scalar ones bit for bit.
//
// Everything except the interface functions has internal linkage, and no
// repo headers are included: nothing compiled under the avx2 target
// attribute can be COMDAT-merged into translation units that must stay
// runnable on plain SSE2 machines.
#include "nn/kernels_isa.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define FUSE_KERNELS_AVX2 1
#include <immintrin.h>
#else
#define FUSE_KERNELS_AVX2 0
#endif

namespace fuse::nn::kernels::avx2 {

#if FUSE_KERNELS_AVX2

#define FUSE_TARGET_AVX2 __attribute__((target("avx2,fma")))

namespace {

inline std::int64_t min64(std::int64_t a, std::int64_t b) {
  return a < b ? a : b;
}

constexpr std::int64_t kNr = 8;  // packed-panel width, fixed by kernels.cpp

// ---------------------------------------------------------------------------
// GEMM micro-tile
// ---------------------------------------------------------------------------

/// One column strip of a GEMM block: A rows, the strip's first packed
/// panel, the bias seed, and where the strip's outputs go.
struct Strip {
  const float* a;
  std::int64_t lda;
  const float* bp;
  std::int64_t kk;
  const float* seed;  // per_row: one value per A row; else 16 lanes
  bool per_row;
  float* out;
  std::int64_t row_stride;
  std::int64_t col_stride;
  std::int64_t ncols;  // valid columns of the strip, <= NP * 8
};

/// Rows [r, r + MR) x (NP * 8) columns of a strip: acc(i, p) starts at
/// row r + i's bias (per_row) or at panel p's bias lanes, then
/// acc(i, p) += a(r + i, k) * panel_p(k, :) for k ascending, one FMA per
/// (i, p, k). Stores through arbitrary out strides; the contiguous
/// full-width case stores YMM directly.
template <int MR, int NP>
FUSE_TARGET_AVX2 void micro_tile(const Strip& s, std::int64_t r) {
  const float* a = s.a + r * s.lda;
  __m256 acc[MR][NP];
  for (int i = 0; i < MR; ++i) {
    for (int p = 0; p < NP; ++p) {
      acc[i][p] = s.per_row ? _mm256_broadcast_ss(s.seed + r + i)
                            : _mm256_load_ps(s.seed + p * kNr);
    }
  }
  for (std::int64_t k = 0; k < s.kk; ++k) {
    __m256 b[NP];
    for (int p = 0; p < NP; ++p) {
      b[p] = _mm256_loadu_ps(s.bp + (p * s.kk + k) * kNr);
    }
    for (int i = 0; i < MR; ++i) {
      const __m256 av = _mm256_broadcast_ss(a + i * s.lda + k);
      for (int p = 0; p < NP; ++p) {
        acc[i][p] = _mm256_fmadd_ps(av, b[p], acc[i][p]);
      }
    }
  }
  float* out = s.out + r * s.row_stride;
  if (s.col_stride == 1 && s.ncols == NP * kNr) {
    for (int i = 0; i < MR; ++i) {
      for (int p = 0; p < NP; ++p) {
        _mm256_storeu_ps(out + i * s.row_stride + p * kNr, acc[i][p]);
      }
    }
    return;
  }
  // Spill through a tile buffer indexed only by constants, so the
  // accumulators stay in registers through the k loop.
  alignas(32) float tile[MR][NP * kNr];
  for (int i = 0; i < MR; ++i) {
    for (int p = 0; p < NP; ++p) {
      _mm256_store_ps(tile[i] + p * kNr, acc[i][p]);
    }
  }
  for (int i = 0; i < MR; ++i) {
    for (std::int64_t j = 0; j < s.ncols; ++j) {
      out[i * s.row_stride + j * s.col_stride] = tile[i][j];
    }
  }
}

/// Every row of one strip: 6-row tiles, then 4-, 2- and 1-row tails
/// (channel counts are mostly even, so the tails are mostly 4 or 2
/// rows).
template <int NP>
FUSE_TARGET_AVX2 void strip_rows(const Strip& s, std::int64_t rows) {
  std::int64_t r = 0;
  for (; r + 6 <= rows; r += 6) {
    micro_tile<6, NP>(s, r);
  }
  if (r + 4 <= rows) {
    micro_tile<4, NP>(s, r);
    r += 4;
  }
  if (r + 2 <= rows) {
    micro_tile<2, NP>(s, r);
    r += 2;
  }
  if (r < rows) {
    micro_tile<1, NP>(s, r);
  }
}

// ---------------------------------------------------------------------------
// Double-accumulation GEMM tile
// ---------------------------------------------------------------------------

/// Rounds two 4-lane double accumulators to float once each and stores
/// the first `ncols` of their eight lanes.
FUSE_TARGET_AVX2 inline void store_f64_lanes(__m256d lo, __m256d hi,
                                             float* out,
                                             std::int64_t ncols) {
  const __m128 lo_f = _mm256_cvtpd_ps(lo);
  const __m128 hi_f = _mm256_cvtpd_ps(hi);
  if (ncols == kNr) {
    _mm_storeu_ps(out, lo_f);
    _mm_storeu_ps(out + 4, hi_f);
    return;
  }
  alignas(16) float lanes[kNr];
  _mm_store_ps(lanes, lo_f);
  _mm_store_ps(lanes + 4, hi_f);
  for (std::int64_t j = 0; j < ncols; ++j) {
    out[j] = lanes[j];
  }
}

/// MR rows of A against one packed panel: acc[i][h] holds outputs
/// (i, 4h .. 4h + 3), starts at +0.0 and takes one FMA per k in
/// ascending order.
template <int MR>
FUSE_TARGET_AVX2 void micro_tile_f64(const float* a, std::int64_t lda,
                                     const float* bp, std::int64_t kk,
                                     float* out, std::int64_t ldo,
                                     std::int64_t ncols) {
  __m256d acc[MR][2];
  for (int i = 0; i < MR; ++i) {
    acc[i][0] = _mm256_setzero_pd();
    acc[i][1] = _mm256_setzero_pd();
  }
  for (std::int64_t k = 0; k < kk; ++k) {
    const __m256d b_lo = _mm256_cvtps_pd(_mm_loadu_ps(bp + k * kNr));
    const __m256d b_hi = _mm256_cvtps_pd(_mm_loadu_ps(bp + k * kNr + 4));
    for (int i = 0; i < MR; ++i) {
      const __m256d av = _mm256_set1_pd(static_cast<double>(a[i * lda + k]));
      acc[i][0] = _mm256_fmadd_pd(av, b_lo, acc[i][0]);
      acc[i][1] = _mm256_fmadd_pd(av, b_hi, acc[i][1]);
    }
  }
  for (int i = 0; i < MR; ++i) {
    store_f64_lanes(acc[i][0], acc[i][1], out + i * ldo, ncols);
  }
}

/// Four floats widened to double; a partial load reads only the lanes
/// its mask selects and yields +0.0 in the rest.
template <bool kPartial>
FUSE_TARGET_AVX2 inline __m256d load4_pd(const float* p, __m128i mask) {
  if constexpr (kPartial) {
    return _mm256_cvtps_pd(_mm_maskload_ps(p, mask));
  } else {
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
  }
}

/// Outputs [0, ncols) of one broadcast line, ncols <= 8: each lane
/// starts at +0.0 and takes one FMA per tap in ascending order. A
/// partial step masks its loads to its ncols outputs, so no lane reads
/// past the line; the dropped lanes sum zeros.
template <bool kPartial>
FUSE_TARGET_AVX2 void line_step(const float* x, const float* w,
                                std::int64_t taps, float* out,
                                std::int64_t ncols) {
  const __m128i lane = _mm_setr_epi32(0, 1, 2, 3);
  const auto n = static_cast<int>(ncols);
  const __m128i lo_mask = _mm_cmpgt_epi32(_mm_set1_epi32(n), lane);
  const __m128i hi_mask = _mm_cmpgt_epi32(_mm_set1_epi32(n - 4), lane);
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  for (std::int64_t k = 0; k < taps; ++k) {
    const __m256d wk = _mm256_set1_pd(static_cast<double>(w[k]));
    lo = _mm256_fmadd_pd(wk, load4_pd<kPartial>(x + k, lo_mask), lo);
    hi = _mm256_fmadd_pd(wk, load4_pd<kPartial>(x + k + 4, hi_mask), hi);
  }
  store_f64_lanes(lo, hi, out, ncols);
}

// ---------------------------------------------------------------------------
// Linear: eight weight rows per output panel
// ---------------------------------------------------------------------------

/// In-register 8x8 transpose: on entry t[j] holds row j, on exit t[i]
/// holds column i (lane j = old t[j][i]).
FUSE_TARGET_AVX2 inline void transpose8(__m256 (&t)[8]) {
  __m256 u[8];
  for (int i = 0; i < 4; ++i) {
    u[2 * i] = _mm256_unpacklo_ps(t[2 * i], t[2 * i + 1]);
    u[2 * i + 1] = _mm256_unpackhi_ps(t[2 * i], t[2 * i + 1]);
  }
  __m256 s[8];
  for (int h = 0; h < 2; ++h) {  // rows 0-3, rows 4-7
    const __m256* q = u + 4 * h;
    s[4 * h + 0] = _mm256_shuffle_ps(q[0], q[2], _MM_SHUFFLE(1, 0, 1, 0));
    s[4 * h + 1] = _mm256_shuffle_ps(q[0], q[2], _MM_SHUFFLE(3, 2, 3, 2));
    s[4 * h + 2] = _mm256_shuffle_ps(q[1], q[3], _MM_SHUFFLE(1, 0, 1, 0));
    s[4 * h + 3] = _mm256_shuffle_ps(q[1], q[3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int i = 0; i < 4; ++i) {
    t[i] = _mm256_permute2f128_ps(s[i], s[i + 4], 0x20);
    t[i + 4] = _mm256_permute2f128_ps(s[i], s[i + 4], 0x31);
  }
}

/// MR input rows against one eight-row weight panel: lane j of acc[r]
/// is output (r, j), one FMA per k in ascending order.
template <int MR>
FUSE_TARGET_AVX2 void linear_tile(const float* in, std::int64_t in_f,
                                  const float* const* w, __m256 seed,
                                  float* out, std::int64_t ldo,
                                  std::int64_t ncols) {
  __m256 acc[MR];
  for (int r = 0; r < MR; ++r) {
    acc[r] = seed;
  }
  std::int64_t k = 0;
  for (; k + kNr <= in_f; k += kNr) {
    __m256 t[kNr];
    for (int j = 0; j < kNr; ++j) {
      t[j] = _mm256_loadu_ps(w[j] + k);
    }
    transpose8(t);
    for (int i = 0; i < kNr; ++i) {
      for (int r = 0; r < MR; ++r) {
        acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(in + r * in_f + k + i),
                                 t[i], acc[r]);
      }
    }
  }
  for (; k < in_f; ++k) {
    const __m256 col = _mm256_setr_ps(w[0][k], w[1][k], w[2][k], w[3][k],
                                      w[4][k], w[5][k], w[6][k], w[7][k]);
    for (int r = 0; r < MR; ++r) {
      acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(in + r * in_f + k), col,
                               acc[r]);
    }
  }
  if (ncols == kNr) {
    for (int r = 0; r < MR; ++r) {
      _mm256_storeu_ps(out + r * ldo, acc[r]);
    }
    return;
  }
  alignas(32) float tile[MR][kNr];
  for (int r = 0; r < MR; ++r) {
    _mm256_store_ps(tile[r], acc[r]);
  }
  for (int r = 0; r < MR; ++r) {
    for (std::int64_t j = 0; j < ncols; ++j) {
      out[r * ldo + j] = tile[r][j];
    }
  }
}

// ---------------------------------------------------------------------------
// Scalar float-accumulation edge helpers (shared by the channelwise
// kernels; same per-element tap order as the vector interior).
// ---------------------------------------------------------------------------

inline float depthwise_edge(const float* plane, std::int64_t in_h,
                            std::int64_t in_w, const float* w,
                            std::int64_t kh, std::int64_t kw,
                            const ConvGeom& g, float bias_value,
                            std::int64_t iy0, std::int64_t ox) {
  float acc = bias_value;
  const std::int64_t ix0 = ox * g.stride_w - g.pad_w;
  for (std::int64_t ky = 0; ky < kh; ++ky) {
    const std::int64_t iy = iy0 + ky * g.dilation_h;
    if (iy < 0 || iy >= in_h) {
      continue;
    }
    const float* row = plane + iy * in_w;
    for (std::int64_t kx = 0; kx < kw; ++kx) {
      const std::int64_t ix = ix0 + kx * g.dilation_w;
      if (ix < 0 || ix >= in_w) {
        continue;
      }
      acc += row[ix] * w[ky * kw + kx];
    }
  }
  return acc;
}

}  // namespace

bool compiled() { return true; }

FUSE_TARGET_AVX2 void block_gemm(const float* a, std::int64_t lda,
                                 std::int64_t rows, const float* b_panels,
                                 std::int64_t kk, std::int64_t n,
                                 const float* bias, BiasAxis axis,
                                 float* out, std::int64_t row_stride,
                                 std::int64_t col_stride) {
  // A null bias seeds zero lanes whatever the axis.
  const bool per_row = bias != nullptr && axis == BiasAxis::kRows;
  for (std::int64_t j0 = 0; j0 < n; j0 += 2 * kNr) {
    const float* bp = b_panels + j0 * kk;  // panel j0 / kNr
    const std::int64_t ncols = min64(2 * kNr, n - j0);
    alignas(32) float col_seed[2 * kNr] = {};
    if (bias != nullptr && !per_row) {
      for (std::int64_t j = 0; j < ncols; ++j) {
        col_seed[j] = bias[j0 + j];
      }
    }
    const Strip strip{a,          lda,
                      bp,         kk,
                      per_row ? bias : col_seed,
                      per_row,    out + j0 * col_stride,
                      row_stride, col_stride,
                      ncols};
    if (ncols > kNr) {
      strip_rows<2>(strip, rows);
    } else {
      strip_rows<1>(strip, rows);
    }
  }
}

FUSE_TARGET_AVX2 void block_gemm_f64(const float* a, std::int64_t lda,
                                     std::int64_t rows,
                                     const float* b_panels, std::int64_t kk,
                                     std::int64_t n, float* out,
                                     std::int64_t ldo) {
  for (std::int64_t j0 = 0; j0 < n; j0 += kNr) {
    const float* bp = b_panels + j0 * kk;  // panel j0 / kNr
    const std::int64_t ncols = min64(kNr, n - j0);
    // 6-row tiles, then 4-, 2- and 1-row tails, as strip_rows walks them.
    std::int64_t r = 0;
    for (; r + 6 <= rows; r += 6) {
      micro_tile_f64<6>(a + r * lda, lda, bp, kk, out + r * ldo + j0, ldo,
                        ncols);
    }
    if (r + 4 <= rows) {
      micro_tile_f64<4>(a + r * lda, lda, bp, kk, out + r * ldo + j0, ldo,
                        ncols);
      r += 4;
    }
    if (r + 2 <= rows) {
      micro_tile_f64<2>(a + r * lda, lda, bp, kk, out + r * ldo + j0, ldo,
                        ncols);
      r += 2;
    }
    if (r < rows) {
      micro_tile_f64<1>(a + r * lda, lda, bp, kk, out + r * ldo + j0, ldo,
                        ncols);
    }
  }
}

FUSE_TARGET_AVX2 void conv1d_lines_f64(const float* lines,
                                       std::int64_t num_lines,
                                       std::int64_t width,
                                       const float* kernels,
                                       std::int64_t taps, float* out) {
  const std::int64_t out_w = width - taps + 1;
  for (std::int64_t line = 0; line < num_lines; ++line) {
    const float* x = lines + line * width;
    const float* w = kernels + line * taps;
    float* out_row = out + line * out_w;
    std::int64_t c = 0;
    for (; c + kNr <= out_w; c += kNr) {
      line_step<false>(x + c, w, taps, out_row + c, kNr);
    }
    if (c < out_w) {
      line_step<true>(x + c, w, taps, out_row + c, out_w - c);
    }
  }
}

FUSE_TARGET_AVX2 void linear_panel(const float* in, std::int64_t batch,
                                   std::int64_t in_f,
                                   const float* const* w_rows,
                                   const float* seed, float* out,
                                   std::int64_t ldo, std::int64_t ncols) {
  const __m256 seed_lanes = _mm256_loadu_ps(seed);
  // Input rows four at a time (each tile transposes the panel once),
  // then 2- and 1-row tails.
  std::int64_t n = 0;
  for (; n + 4 <= batch; n += 4) {
    linear_tile<4>(in + n * in_f, in_f, w_rows, seed_lanes, out + n * ldo,
                   ldo, ncols);
  }
  if (n + 2 <= batch) {
    linear_tile<2>(in + n * in_f, in_f, w_rows, seed_lanes, out + n * ldo,
                   ldo, ncols);
    n += 2;
  }
  if (n < batch) {
    linear_tile<1>(in + n * in_f, in_f, w_rows, seed_lanes, out + n * ldo,
                   ldo, ncols);
  }
}

FUSE_TARGET_AVX2 void depthwise_channel(
    const float* plane, std::int64_t in_h,
                       std::int64_t in_w, const float* w, std::int64_t kh,
                       std::int64_t kw, const ConvGeom& g, float bias_value,
                       float* out, std::int64_t out_h, std::int64_t out_w,
                       std::int64_t x_lo, std::int64_t x_hi) {
  for (std::int64_t oy = 0; oy < out_h; ++oy) {
    const std::int64_t iy0 = oy * g.stride_h - g.pad_h;
    float* out_row = out + oy * out_w;
    for (std::int64_t ox = 0; ox < x_lo; ++ox) {
      out_row[ox] =
          depthwise_edge(plane, in_h, in_w, w, kh, kw, g, bias_value, iy0, ox);
    }
    const __m256 seed = _mm256_set1_ps(bias_value);
    std::int64_t ox = x_lo;
    for (; ox + kNr <= x_hi; ox += kNr) {
      __m256 acc = seed;
      const std::int64_t ix0 = ox - g.pad_w;  // stride_w == 1
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const std::int64_t iy = iy0 + ky * g.dilation_h;
        if (iy < 0 || iy >= in_h) {
          continue;
        }
        const float* row = plane + iy * in_w + ix0;
        const float* wk = w + ky * kw;
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(row + kx),
                                _mm256_broadcast_ss(wk + kx), acc);
        }
      }
      _mm256_storeu_ps(out_row + ox, acc);
    }
    for (; ox < x_hi; ++ox) {
      // Interior remainder: taps all in bounds, scalar float accumulation.
      float acc = bias_value;
      const std::int64_t ix0 = ox - g.pad_w;
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const std::int64_t iy = iy0 + ky * g.dilation_h;
        if (iy < 0 || iy >= in_h) {
          continue;
        }
        const float* row = plane + iy * in_w + ix0;
        const float* wk = w + ky * kw;
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          acc += row[kx] * wk[kx];
        }
      }
      out_row[ox] = acc;
    }
    for (ox = x_hi; ox < out_w; ++ox) {
      out_row[ox] =
          depthwise_edge(plane, in_h, in_w, w, kh, kw, g, bias_value, iy0, ox);
    }
  }
}

FUSE_TARGET_AVX2 void fuse_row_channel(
    const float* plane, std::int64_t in_h,
                      std::int64_t in_w, const float* w, std::int64_t kw,
                      const ConvGeom& g, float bias_value, float* out,
                      std::int64_t out_h, std::int64_t out_w,
                      std::int64_t x_lo, std::int64_t x_hi) {
  depthwise_channel(plane, in_h, in_w, w, /*kh=*/1, kw, g, bias_value, out,
                    out_h, out_w, x_lo, x_hi);
}

FUSE_TARGET_AVX2 void fuse_col_channel(
    const float* plane, std::int64_t in_h,
                      std::int64_t in_w, const float* w, std::int64_t kh,
                      const ConvGeom& g, float bias_value, float* out,
                      std::int64_t out_h, std::int64_t out_w,
                      std::int64_t x_lo, std::int64_t x_hi) {
  const __m256 seed = _mm256_set1_ps(bias_value);
  for (std::int64_t oy = 0; oy < out_h; ++oy) {
    const std::int64_t iy0 = oy * g.stride_h - g.pad_h;
    float* out_row = out + oy * out_w;
    // Edge columns have their single tap column out of bounds for every
    // ky, so only the bias survives (mirrors the scalar kernel).
    for (std::int64_t ox = 0; ox < x_lo; ++ox) {
      out_row[ox] = bias_value;
    }
    for (std::int64_t ox = x_hi; ox < out_w; ++ox) {
      out_row[ox] = bias_value;
    }
    std::int64_t ox = x_lo;
    for (; ox + kNr <= x_hi; ox += kNr) {
      __m256 acc = seed;
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const std::int64_t iy = iy0 + ky * g.dilation_h;
        if (iy < 0 || iy >= in_h) {
          continue;
        }
        acc = _mm256_fmadd_ps(
            _mm256_loadu_ps(plane + iy * in_w + ox - g.pad_w),
            _mm256_broadcast_ss(w + ky), acc);
      }
      _mm256_storeu_ps(out_row + ox, acc);
    }
    for (; ox < x_hi; ++ox) {
      float acc = bias_value;
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const std::int64_t iy = iy0 + ky * g.dilation_h;
        if (iy < 0 || iy >= in_h) {
          continue;
        }
        acc += plane[iy * in_w + ox - g.pad_w] * w[ky];
      }
      out_row[ox] = acc;
    }
  }
}

FUSE_TARGET_AVX2 void conv2d_int8_plane(
    const std::int8_t* image, std::int64_t group_in,
                       std::int64_t in_h, std::int64_t in_w,
                       const std::int8_t* w_oc, std::int64_t kh,
                       std::int64_t kw, const ConvGeom& g,
                       std::int32_t zp_in, float requant_scale,
                       float* out_plane, std::int64_t out_h,
                       std::int64_t out_w, std::int64_t x_lo,
                       std::int64_t x_hi) {
  const __m256i zp = _mm256_set1_epi32(zp_in);
  // int32 accumulation is associative: edges and vector interior are
  // bit-exact with the scalar kernel by construction.
  const auto scalar_out = [&](std::int64_t oy, std::int64_t ox) {
    const std::int64_t iy0 = oy * g.stride_h - g.pad_h;
    const std::int64_t ix0 = ox - g.pad_w;  // stride_w == 1
    std::int32_t acc = 0;
    for (std::int64_t ic = 0; ic < group_in; ++ic) {
      const std::int8_t* plane = image + ic * in_h * in_w;
      const std::int8_t* w_ic = w_oc + ic * kh * kw;
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const std::int64_t iy = iy0 + ky * g.dilation_h;
        if (iy < 0 || iy >= in_h) {
          continue;
        }
        const std::int8_t* row = plane + iy * in_w;
        const std::int8_t* w_ky = w_ic + ky * kw;
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          const std::int64_t ix = ix0 + kx;
          if (ix < 0 || ix >= in_w) {
            continue;
          }
          acc += (static_cast<std::int32_t>(row[ix]) - zp_in) *
                 static_cast<std::int32_t>(w_ky[kx]);
        }
      }
    }
    return acc;
  };
  for (std::int64_t oy = 0; oy < out_h; ++oy) {
    const std::int64_t iy0 = oy * g.stride_h - g.pad_h;
    float* out_row = out_plane + oy * out_w;
    for (std::int64_t ox = 0; ox < x_lo; ++ox) {
      out_row[ox] = requant_scale * static_cast<float>(scalar_out(oy, ox));
    }
    std::int64_t ox = x_lo;
    for (; ox + kNr <= x_hi; ox += kNr) {
      __m256i acc = _mm256_setzero_si256();
      const std::int64_t ix0 = ox - g.pad_w;
      for (std::int64_t ic = 0; ic < group_in; ++ic) {
        const std::int8_t* plane = image + ic * in_h * in_w;
        const std::int8_t* w_ic = w_oc + ic * kh * kw;
        for (std::int64_t ky = 0; ky < kh; ++ky) {
          const std::int64_t iy = iy0 + ky * g.dilation_h;
          if (iy < 0 || iy >= in_h) {
            continue;
          }
          const std::int8_t* row = plane + iy * in_w + ix0;
          const std::int8_t* w_ky = w_ic + ky * kw;
          for (std::int64_t kx = 0; kx < kw; ++kx) {
            const __m128i bytes = _mm_loadl_epi64(
                reinterpret_cast<const __m128i*>(row + kx));
            const __m256i vals =
                _mm256_sub_epi32(_mm256_cvtepi8_epi32(bytes), zp);
            acc = _mm256_add_epi32(
                acc, _mm256_mullo_epi32(
                         vals, _mm256_set1_epi32(
                                   static_cast<std::int32_t>(w_ky[kx]))));
          }
        }
      }
      alignas(32) std::int32_t lanes[kNr];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
      for (std::int64_t j = 0; j < kNr; ++j) {
        out_row[ox + j] = requant_scale * static_cast<float>(lanes[j]);
      }
    }
    for (; ox < x_hi; ++ox) {
      out_row[ox] = requant_scale * static_cast<float>(scalar_out(oy, ox));
    }
    for (ox = x_hi; ox < out_w; ++ox) {
      out_row[ox] = requant_scale * static_cast<float>(scalar_out(oy, ox));
    }
  }
}

FUSE_TARGET_AVX2 std::int32_t linear_int8_dot(
    const std::int8_t* row,
                             const std::int8_t* w_row, std::int64_t in_f,
                             std::int32_t zp_in) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i zp16 = _mm256_set1_epi16(static_cast<short>(zp_in));
  std::int64_t i = 0;
  for (; i + 16 <= in_f; i += 16) {
    // (row - zp) fits int16 (range [-254, 382]); madd pairs fit int32.
    const __m256i r16 = _mm256_sub_epi16(
        _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + i))),
        zp16);
    const __m256i w16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w_row + i)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(r16, w16));
  }
  alignas(32) std::int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int32_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] +
                       lanes[5] + lanes[6] + lanes[7];
  for (; i < in_f; ++i) {
    total += (static_cast<std::int32_t>(row[i]) - zp_in) *
             static_cast<std::int32_t>(w_row[i]);
  }
  return total;
}

#undef FUSE_TARGET_AVX2

#else  // !FUSE_KERNELS_AVX2 — non-x86 stubs; the dispatcher never calls
       // these because kernel_isa_available(kAvx2) is false.

bool compiled() { return false; }

void block_gemm(const float*, std::int64_t, std::int64_t, const float*,
                std::int64_t, std::int64_t, const float*, BiasAxis, float*,
                std::int64_t, std::int64_t) {}
void block_gemm_f64(const float*, std::int64_t, std::int64_t, const float*,
                    std::int64_t, std::int64_t, float*, std::int64_t) {}
void conv1d_lines_f64(const float*, std::int64_t, std::int64_t, const float*,
                      std::int64_t, float*) {}
void linear_panel(const float*, std::int64_t, std::int64_t,
                  const float* const*, const float*, float*, std::int64_t,
                  std::int64_t) {}
void depthwise_channel(const float*, std::int64_t, std::int64_t,
                       const float*, std::int64_t, std::int64_t,
                       const ConvGeom&, float, float*, std::int64_t,
                       std::int64_t, std::int64_t, std::int64_t) {}
void fuse_row_channel(const float*, std::int64_t, std::int64_t, const float*,
                      std::int64_t, const ConvGeom&, float, float*,
                      std::int64_t, std::int64_t, std::int64_t,
                      std::int64_t) {}
void fuse_col_channel(const float*, std::int64_t, std::int64_t, const float*,
                      std::int64_t, const ConvGeom&, float, float*,
                      std::int64_t, std::int64_t, std::int64_t,
                      std::int64_t) {}
void conv2d_int8_plane(const std::int8_t*, std::int64_t, std::int64_t,
                       std::int64_t, const std::int8_t*, std::int64_t,
                       std::int64_t, const ConvGeom&, std::int32_t, float,
                       float*, std::int64_t, std::int64_t, std::int64_t,
                       std::int64_t) {}
std::int32_t linear_int8_dot(const std::int8_t*, const std::int8_t*,
                             std::int64_t, std::int32_t) {
  return 0;
}

#endif  // FUSE_KERNELS_AVX2

}  // namespace fuse::nn::kernels::avx2
