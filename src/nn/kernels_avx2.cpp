// AVX2/FMA micro-kernels behind the fast backend's ISA dispatch
// (kernels_isa.hpp documents the interface and numerics contract).
//
// Register blocking: the GEMM tile is 6x16 — twelve YMM accumulators over
// two adjacent packed panels, one broadcast per A element and two panel
// loads per k step — giving twelve independent FMA chains, enough to
// cover the 4-5 cycle FMA latency at two issues per cycle. Linear walks
// eight weight rows per output panel and transposes each 8x8 block in
// registers, so every lane keeps its output's own FMA sequence. The
// channel-blocked channelwise kernel reuses that transpose to pack eight
// (image, channel) planes position-major, so one vector is one output
// position of eight planes: each lane runs its own output's taps, four
// positions in flight, in float lanes (unit x stride and dilation) or in
// exact double lanes (any other geometry). The per-plane FuSe kernels
// vectorize wide lines' interior columns eight outputs at a time and run
// edges and remainders as one explicit scalar FMA per tap, so every float
// output is one FMA per term whichever kernel computes it.
//
// The f64 kernels widen floats to double: the simulator's GEMM tile is
// 6x8 (twelve 4-lane accumulators, two widened panel loads and one
// widened A broadcast per row per k step), the channelwise double lanes
// two 4-lane halves per position.
// A float x float product is exact in double, so each FMA rounds exactly
// as the scalar multiply-then-add, _mm256_cvtpd_ps rounds as
// static_cast<float> does (both follow MXCSR), and any FP contraction the
// compiler applies to double sums of such products is exact too: these
// kernels match the scalar ones bit for bit.
//
// Everything except the interface functions has internal linkage, and no
// repo headers are included: nothing compiled under the avx2 target
// attribute can be COMDAT-merged into translation units that must stay
// runnable on plain SSE2 machines. (The std::vector scratch buffers'
// out-of-line members compile for the baseline target: the attribute
// applies only to the functions that carry it.)
#include "nn/kernels_isa.hpp"

#include <vector>

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
/// panel, the per-row bias seed, and where the strip's outputs go.
struct Strip {
  const float* a;
  std::int64_t lda;
  const float* bp;
  std::int64_t kk;
  const float* bias;  // one value per A row; null seeds +0.0
  float* out;
  std::int64_t ldo;
  std::int64_t ncols;  // valid columns of the strip, <= NP * 8
};

/// Rows [r, r + MR) x (NP * 8) columns of a strip: acc(i, p) starts at
/// row r + i's bias, then acc(i, p) += a(r + i, k) * panel_p(k, :) for k
/// ascending, one FMA per (i, p, k). Every tile stores YMM straight into
/// the output rows, masked in a partial strip: a spill through a stack
/// tile buffer let GCC keep the accumulators in memory across the k loop.
template <int MR, int NP>
FUSE_TARGET_AVX2 void micro_tile(const Strip& s, std::int64_t r) {
  const float* a = s.a + r * s.lda;
  __m256 acc[MR][NP];
  for (int i = 0; i < MR; ++i) {
    for (int p = 0; p < NP; ++p) {
      acc[i][p] = s.bias != nullptr ? _mm256_broadcast_ss(s.bias + r + i)
                                    : _mm256_setzero_ps();
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
  float* out = s.out + r * s.ldo;
  if (s.ncols == NP * kNr) {
    for (int i = 0; i < MR; ++i) {
      for (int p = 0; p < NP; ++p) {
        _mm256_storeu_ps(out + i * s.ldo + p * kNr, acc[i][p]);
      }
    }
    return;
  }
  // A partial strip: masked stores write only its valid columns.
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (int p = 0; p < NP; ++p) {
    const __m256i mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(s.ncols - p * kNr)), lane);
    for (int i = 0; i < MR; ++i) {
      _mm256_maskstore_ps(out + i * s.ldo + p * kNr, mask, acc[i][p]);
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
// Per-plane FuSe helpers (same per-output tap sequence as the vector lanes)
// ---------------------------------------------------------------------------

/// acc + a * b rounded once: the scalar twin of one vector lane's FMA,
/// explicit so the compiler's contraction choice cannot change a bit.
FUSE_TARGET_AVX2 inline float fma1(float a, float b, float acc) {
  return _mm_cvtss_f32(
      _mm_fmadd_ss(_mm_set_ss(a), _mm_set_ss(b), _mm_set_ss(acc)));
}

/// One FuSe row output outside the vector interior: the bias, then one
/// FMA per in-bounds tap in kx order. `row` is null when the kernel row
/// is out of bounds, which leaves only the bias.
FUSE_TARGET_AVX2 inline float row_edge(const float* row, std::int64_t in_w,
                                       const float* w, std::int64_t kw,
                                       const ConvGeom& g, float bias_value,
                                       std::int64_t ox) {
  float acc = bias_value;
  if (row == nullptr) {
    return acc;
  }
  const std::int64_t ix0 = ox * g.stride_w - g.pad_w;
  for (std::int64_t kx = 0; kx < kw; ++kx) {
    const std::int64_t ix = ix0 + kx * g.dilation_w;
    if (ix >= 0 && ix < in_w) {
      acc = fma1(row[ix], w[kx], acc);
    }
  }
  return acc;
}

// ---------------------------------------------------------------------------
// Channel-blocked channelwise kernels: lane j of a vector is plane j of an
// eight-plane block, so one vector is one output position.
// ---------------------------------------------------------------------------

/// Float lanes: one __m256 per position, one FMA per tap.
struct LanesF32 {
  using Acc = __m256;
  using W = __m256;
  FUSE_TARGET_AVX2 static Acc seed(const float* b) {
    return _mm256_loadu_ps(b);
  }
  FUSE_TARGET_AVX2 static W weight(const float* w) {
    return _mm256_loadu_ps(w);
  }
  FUSE_TARGET_AVX2 static Acc fma(const float* x, W w, Acc acc) {
    return _mm256_fmadd_ps(_mm256_loadu_ps(x), w, acc);
  }
  FUSE_TARGET_AVX2 static void store(Acc acc, float* y) {
    _mm256_storeu_ps(y, acc);
  }
};

/// Double lanes: two 4-lane halves per position, floats widened on load
/// (so every product is exact), one rounding to float at the store.
struct LanesF64 {
  struct Acc {
    __m256d lo, hi;
  };
  using W = Acc;
  FUSE_TARGET_AVX2 static Acc seed(const float* b) {
    return {_mm256_cvtps_pd(_mm_loadu_ps(b)),
            _mm256_cvtps_pd(_mm_loadu_ps(b + 4))};
  }
  FUSE_TARGET_AVX2 static W weight(const float* w) { return seed(w); }
  FUSE_TARGET_AVX2 static Acc fma(const float* x, const W& w, Acc acc) {
    return {_mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(x)), w.lo, acc.lo),
            _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(x + 4)), w.hi,
                            acc.hi)};
  }
  FUSE_TARGET_AVX2 static void store(const Acc& acc, float* y) {
    _mm_storeu_ps(y, _mm256_cvtpd_ps(acc.lo));
    _mm_storeu_ps(y + 4, _mm256_cvtpd_ps(acc.hi));
  }
};

/// dst[i * 8 + j] = src[j][i] for i < count: eight planes packed
/// position-major, eight positions per in-register transpose.
FUSE_TARGET_AVX2 void pack8(const float* const* src, std::int64_t count,
                            float* dst) {
  std::int64_t i = 0;
  for (; i + kNr <= count; i += kNr) {
    __m256 t[kNr];
    for (int j = 0; j < kNr; ++j) {
      t[j] = _mm256_loadu_ps(src[j] + i);
    }
    transpose8(t);
    for (int j = 0; j < kNr; ++j) {
      _mm256_storeu_ps(dst + (i + j) * kNr, t[j]);
    }
  }
  for (; i < count; ++i) {
    for (int j = 0; j < kNr; ++j) {
      dst[i * kNr + j] = src[j][i];
    }
  }
}

/// dst[j][i] = src[i * 8 + j] for i < count, j < lanes: pack8 inverted.
FUSE_TARGET_AVX2 void unpack8(const float* src, std::int64_t count,
                              float* const* dst, std::int64_t lanes) {
  std::int64_t i = 0;
  for (; i + kNr <= count; i += kNr) {
    __m256 t[kNr];
    for (int j = 0; j < kNr; ++j) {
      t[j] = _mm256_loadu_ps(src + (i + j) * kNr);
    }
    transpose8(t);
    for (std::int64_t j = 0; j < lanes; ++j) {
      _mm256_storeu_ps(dst[j] + i, t[j]);
    }
  }
  for (; i < count; ++i) {
    for (std::int64_t j = 0; j < lanes; ++j) {
      dst[j][i] = src[i * kNr + j];
    }
  }
}

/// Shapes of one channel-blocked call; x, w, bias and y are packed
/// eight lanes per element ([in_h][in_w][8], [kh * kw][8], [8],
/// [out_h][out_w][8]).
struct BlockedGeom {
  std::int64_t in_h, in_w, kh, kw, out_h, out_w, x_lo, x_hi;
  ConvGeom g;
};

/// Output positions [ox, ox + N) of row oy as N independent FMA chains
/// sharing each weight load: every lane starts at its bias and takes one
/// FMA per in-bounds tap in (ky, kx) order. kChecked tests each
/// position's tap column (edge groups); interior groups have every kx in
/// bounds.
template <typename L, int N, bool kChecked>
FUSE_TARGET_AVX2 void blocked_group(const BlockedGeom& s, const float* x,
                                    const float* w, const float* bias,
                                    std::int64_t oy, std::int64_t ox,
                                    float* y) {
  typename L::Acc acc[N];
  for (int j = 0; j < N; ++j) {
    acc[j] = L::seed(bias);
  }
  const std::int64_t iy0 = oy * s.g.stride_h - s.g.pad_h;
  const std::int64_t ix0 = ox * s.g.stride_w - s.g.pad_w;
  for (std::int64_t ky = 0; ky < s.kh; ++ky) {
    const std::int64_t iy = iy0 + ky * s.g.dilation_h;
    if (iy < 0 || iy >= s.in_h) {
      continue;
    }
    const float* row = x + iy * s.in_w * kNr;
    const float* wk = w + ky * s.kw * kNr;
    for (std::int64_t kx = 0; kx < s.kw; ++kx) {
      const typename L::W wv = L::weight(wk + kx * kNr);
      const std::int64_t ix = ix0 + kx * s.g.dilation_w;
#pragma GCC unroll 4
      for (int j = 0; j < N; ++j) {
        const std::int64_t ixj = ix + j * s.g.stride_w;
        if (!kChecked || (ixj >= 0 && ixj < s.in_w)) {
          acc[j] = L::fma(row + ixj * kNr, wv, acc[j]);
        }
      }
    }
  }
  float* out = y + (oy * s.out_w + ox) * kNr;
  for (int j = 0; j < N; ++j) {
    L::store(acc[j], out + j * kNr);
  }
}

/// Every output position of one packed block, four positions per group.
/// A row's last group may overlap the one before it: an output computed
/// twice runs the same sequence both times. Rows narrower than a group
/// run one position at a time.
template <typename L>
FUSE_TARGET_AVX2 void blocked_plane(const BlockedGeom& s, const float* x,
                                    const float* w, const float* bias,
                                    float* y) {
  for (std::int64_t oy = 0; oy < s.out_h; ++oy) {
    if (s.out_w < 4) {
      for (std::int64_t ox = 0; ox < s.out_w; ++ox) {
        blocked_group<L, 1, true>(s, x, w, bias, oy, ox, y);
      }
      continue;
    }
    for (std::int64_t ox0 = 0; ox0 < s.out_w; ox0 += 4) {
      const std::int64_t ox = min64(ox0, s.out_w - 4);
      if (ox >= s.x_lo && ox + 4 <= s.x_hi) {
        blocked_group<L, 4, false>(s, x, w, bias, oy, ox, y);
      } else {
        blocked_group<L, 4, true>(s, x, w, bias, oy, ox, y);
      }
    }
  }
}

/// Channel-blocked driver: planes eight at a time, each block packed,
/// computed and unpacked through per-call scratch. A tail block's missing
/// lanes repeat its last plane and drop their results.
template <typename L>
FUSE_TARGET_AVX2 void channelwise_blocked(
    const float* in, std::int64_t planes, std::int64_t channels,
    std::int64_t in_h, std::int64_t in_w, const float* w, std::int64_t kh,
    std::int64_t kw, const ConvGeom& g, const float* bias, float* out,
    std::int64_t out_h, std::int64_t out_w, std::int64_t x_lo,
    std::int64_t x_hi) {
  const BlockedGeom s{in_h, in_w, kh, kw, out_h, out_w, x_lo, x_hi, g};
  const std::int64_t in_plane = in_h * in_w;
  const std::int64_t out_plane = out_h * out_w;
  const std::int64_t taps = kh * kw;
  std::vector<float> xp(static_cast<std::size_t>(in_plane * kNr));
  std::vector<float> yp(static_cast<std::size_t>(out_plane * kNr));
  std::vector<float> wp(static_cast<std::size_t>(taps * kNr));
  float bp[kNr] = {};
  for (std::int64_t q0 = 0; q0 < planes; q0 += kNr) {
    const std::int64_t lanes = min64(kNr, planes - q0);
    const float* src[kNr] = {};
    float* dst[kNr] = {};
    for (std::int64_t j = 0; j < kNr; ++j) {
      const std::int64_t q = q0 + min64(j, lanes - 1);
      const std::int64_t c = q % channels;
      src[j] = in + q * in_plane;
      dst[j] = out + q * out_plane;
      for (std::int64_t t = 0; t < taps; ++t) {
        wp[static_cast<std::size_t>(t * kNr + j)] = w[c * taps + t];
      }
      bp[j] = bias != nullptr ? bias[c] : 0.0F;
    }
    pack8(src, in_plane, xp.data());
    blocked_plane<L>(s, xp.data(), wp.data(), bp, yp.data());
    unpack8(yp.data(), out_plane, dst, lanes);
  }
}

}  // namespace

bool compiled() { return true; }

FUSE_TARGET_AVX2 void channelwise_blocked_f32(
    const float* in, std::int64_t planes, std::int64_t channels,
    std::int64_t in_h, std::int64_t in_w, const float* w, std::int64_t kh,
    std::int64_t kw, const ConvGeom& g, const float* bias, float* out,
    std::int64_t out_h, std::int64_t out_w, std::int64_t x_lo,
    std::int64_t x_hi) {
  channelwise_blocked<LanesF32>(in, planes, channels, in_h, in_w, w, kh, kw,
                                g, bias, out, out_h, out_w, x_lo, x_hi);
}

FUSE_TARGET_AVX2 void channelwise_blocked_f64(
    const float* in, std::int64_t planes, std::int64_t channels,
    std::int64_t in_h, std::int64_t in_w, const float* w, std::int64_t kh,
    std::int64_t kw, const ConvGeom& g, const float* bias, float* out,
    std::int64_t out_h, std::int64_t out_w, std::int64_t x_lo,
    std::int64_t x_hi) {
  channelwise_blocked<LanesF64>(in, planes, channels, in_h, in_w, w, kh, kw,
                                g, bias, out, out_h, out_w, x_lo, x_hi);
}

FUSE_TARGET_AVX2 void block_gemm(const float* a, std::int64_t lda,
                                 std::int64_t rows, const float* b_panels,
                                 std::int64_t kk, std::int64_t n,
                                 const float* bias, float* out,
                                 std::int64_t ldo) {
  for (std::int64_t j0 = 0; j0 < n; j0 += 2 * kNr) {
    const float* bp = b_panels + j0 * kk;  // panel j0 / kNr
    const Strip strip{a,   lda, bp, kk, bias, out + j0,
                      ldo, min64(2 * kNr, n - j0)};
    if (strip.ncols > kNr) {
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

FUSE_TARGET_AVX2 void fuse_row_channel(
    const float* plane, std::int64_t in_h, std::int64_t in_w, const float* w,
    std::int64_t kw, const ConvGeom& g, float bias_value, float* out,
    std::int64_t out_h, std::int64_t out_w, std::int64_t x_lo,
    std::int64_t x_hi) {
  const __m256 seed = _mm256_set1_ps(bias_value);
  for (std::int64_t oy = 0; oy < out_h; ++oy) {
    const std::int64_t iy = oy * g.stride_h - g.pad_h;
    const float* row = iy >= 0 && iy < in_h ? plane + iy * in_w : nullptr;
    float* out_row = out + oy * out_w;
    std::int64_t ox = 0;
    for (; ox < x_lo; ++ox) {
      out_row[ox] = row_edge(row, in_w, w, kw, g, bias_value, ox);
    }
    for (; row != nullptr && ox + kNr <= x_hi; ox += kNr) {
      const float* x = row + ox - g.pad_w;  // stride_w == 1
      __m256 acc = seed;
      for (std::int64_t kx = 0; kx < kw; ++kx) {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + kx),
                              _mm256_broadcast_ss(w + kx), acc);
      }
      _mm256_storeu_ps(out_row + ox, acc);
    }
    // The interior remainder and the right edge.
    for (; ox < out_w; ++ox) {
      out_row[ox] = row_edge(row, in_w, w, kw, g, bias_value, ox);
    }
  }
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
        acc = fma1(plane[iy * in_w + ox - g.pad_w], w[ky], acc);
      }
      out_row[ox] = acc;
    }
  }
}

#undef FUSE_TARGET_AVX2

#else  // !FUSE_KERNELS_AVX2 — non-x86 stubs; the dispatcher never calls
       // these because kernel_isa_available(kAvx2) is false.

bool compiled() { return false; }

void block_gemm(const float*, std::int64_t, std::int64_t, const float*,
                std::int64_t, std::int64_t, const float*, float*,
                std::int64_t) {}
void block_gemm_f64(const float*, std::int64_t, std::int64_t, const float*,
                    std::int64_t, std::int64_t, float*, std::int64_t) {}
void linear_panel(const float*, std::int64_t, std::int64_t,
                  const float* const*, const float*, float*, std::int64_t,
                  std::int64_t) {}
void channelwise_blocked_f32(const float*, std::int64_t, std::int64_t,
                             std::int64_t, std::int64_t, const float*,
                             std::int64_t, std::int64_t, const ConvGeom&,
                             const float*, float*, std::int64_t, std::int64_t,
                             std::int64_t, std::int64_t) {}
void channelwise_blocked_f64(const float*, std::int64_t, std::int64_t,
                             std::int64_t, std::int64_t, const float*,
                             std::int64_t, std::int64_t, const ConvGeom&,
                             const float*, float*, std::int64_t, std::int64_t,
                             std::int64_t, std::int64_t) {}
void fuse_row_channel(const float*, std::int64_t, std::int64_t, const float*,
                      std::int64_t, const ConvGeom&, float, float*,
                      std::int64_t, std::int64_t, std::int64_t,
                      std::int64_t) {}
void fuse_col_channel(const float*, std::int64_t, std::int64_t, const float*,
                      std::int64_t, const ConvGeom&, float, float*,
                      std::int64_t, std::int64_t, std::int64_t,
                      std::int64_t) {}

#endif  // FUSE_KERNELS_AVX2

}  // namespace fuse::nn::kernels::avx2
