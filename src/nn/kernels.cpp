#include "nn/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "nn/kernels_isa.hpp"
#include "tensor/im2col.hpp"
#include "util/check.hpp"
#include "util/cpu_features.hpp"
#include "util/telemetry.hpp"

namespace fuse::nn {

using tensor::QuantizedTensor;
using tensor::Shape;
using tensor::conv_out_dim;

namespace {

// ---------------------------------------------------------------------------
// Backend state
// ---------------------------------------------------------------------------

std::atomic<KernelBackend>& backend_state() {
  static std::atomic<KernelBackend> state{KernelBackend::kFast};
  return state;
}

// ---------------------------------------------------------------------------
// ISA state
// ---------------------------------------------------------------------------

std::atomic<KernelIsa>& isa_state() {
  static std::atomic<KernelIsa> state{
      kernel_isa_available(KernelIsa::kAvx2) ? KernelIsa::kAvx2
                                             : KernelIsa::kScalar};
  return state;
}

// ---------------------------------------------------------------------------
// Telemetry (docs/observability.md catalog, "kernels.*")
// ---------------------------------------------------------------------------

util::Counter& pack_bytes_counter() {
  static util::Counter& counter = util::metrics().counter("kernels.pack_bytes");
  return counter;
}

#define FUSE_KERNEL_COUNTER(name)                                        \
  do {                                                                   \
    static util::Counter& counter = util::metrics().counter(name);       \
    counter.add();                                                       \
  } while (false)

/// Resolves the ISA an operator will actually run with (`vectorizable`
/// is false for geometries the AVX2 kernels don't cover) and bumps the
/// matching kernels.dispatch.{avx2,scalar} counter. The backward passes
/// are scalar-only by design and don't go through here — see the
/// dispatch table in docs/kernels.md.
KernelIsa note_isa(bool vectorizable = true) {
  KernelIsa isa = kernel_isa();
  if (!vectorizable) {
    isa = KernelIsa::kScalar;
  }
  if (isa == KernelIsa::kAvx2) {
    FUSE_KERNEL_COUNTER("kernels.dispatch.avx2");
  } else {
    FUSE_KERNEL_COUNTER("kernels.dispatch.scalar");
  }
  return isa;
}

/// The Conv2dParams subset the ISA kernels take (plain ints, no repo
/// types — see kernels_isa.hpp).
kernels::ConvGeom to_geom(const Conv2dParams& p) {
  return {p.stride_h, p.stride_w, p.pad_h,
          p.pad_w,    p.dilation_h, p.dilation_w};
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

constexpr std::int64_t kNr = 8;   // register-tile columns (one packed panel)
constexpr std::int64_t kMcGemm = 64;   // rows of C per row block
constexpr std::int64_t kMcConv = 64;   // output positions per im2col panel
// Bytes of packed input per pointwise position block (at least two
// panels of positions).
constexpr std::int64_t kPointwiseBlockBytes = 64 * 1024;

/// Packs columns of a row-major B[k, n] (row stride ldb) into
/// ceil(n / kNr) column panels of width kNr, each laid out k-major
/// ([k][kNr], zero-padded in the last panel). Panel p starts at
/// out[p * k * kNr].
void pack_b_panels(const float* b, std::int64_t kk, std::int64_t n,
                   std::int64_t ldb, std::vector<float>& out) {
  const std::int64_t panels = (n + kNr - 1) / kNr;
  out.assign(static_cast<std::size_t>(panels * kk * kNr), 0.0F);
  for (std::int64_t p = 0; p < panels; ++p) {
    float* dst = out.data() + p * kk * kNr;
    const std::int64_t cols = std::min(kNr, n - p * kNr);
    for (std::int64_t k = 0; k < kk; ++k) {
      const float* src = b + k * ldb + p * kNr;
      for (std::int64_t j = 0; j < cols; ++j) {
        dst[k * kNr + j] = src[j];
      }
    }
  }
  pack_bytes_counter().add(out.size() * sizeof(float));
}

/// Packs ROWS of a row-major W[n, k] (row stride ldw) as the columns of
/// the panel layout above — i.e. packs B = W^T without materializing the
/// transpose. Used by the im2col conv (weight rows are [taps] slices, the
/// GEMM wants [taps, C_out]).
void pack_bt_panels(const float* w, std::int64_t n, std::int64_t kk,
                    std::int64_t ldw, std::vector<float>& out) {
  const std::int64_t panels = (n + kNr - 1) / kNr;
  out.assign(static_cast<std::size_t>(panels * kk * kNr), 0.0F);
  for (std::int64_t p = 0; p < panels; ++p) {
    float* dst = out.data() + p * kk * kNr;
    const std::int64_t cols = std::min(kNr, n - p * kNr);
    for (std::int64_t j = 0; j < cols; ++j) {
      const float* src = w + (p * kNr + j) * ldw;
      for (std::int64_t k = 0; k < kk; ++k) {
        dst[k * kNr + j] = src[k];
      }
    }
  }
  pack_bytes_counter().add(out.size() * sizeof(float));
}

// ---------------------------------------------------------------------------
// Micro-kernels
//
// Each computes an MR x kNr tile of C with the accumulator carried across
// the FULL k extent in ascending order (no Kc partial sums), so every
// output element sees exactly the reference accumulation sequence. The
// float variant reproduces nn::matmul (float accumulator from 0); the
// f64 variant reproduces nn::conv2d / nn::linear (double accumulator
// seeded with the bias, products formed exactly in double — so which
// operand is A and which is B cannot change a bit).
// ---------------------------------------------------------------------------

template <int MR>
void micro_f32(const float* a, std::int64_t lda, const float* bp,
               std::int64_t kk, float* c, std::int64_t ldc,
               std::int64_t ncols) {
  float acc[MR][kNr] = {};
  for (std::int64_t k = 0; k < kk; ++k) {
    const float* brow = bp + k * kNr;
    for (int r = 0; r < MR; ++r) {
      const float av = a[r * lda + k];
      for (std::int64_t j = 0; j < kNr; ++j) {
        acc[r][j] += av * brow[j];
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (std::int64_t j = 0; j < ncols; ++j) {
      c[r * ldc + j] = acc[r][j];
    }
  }
}

/// Double-accumulator tile: out(r, j) = seed + sum_k a(r, k) * b(k, j),
/// seeded per row from row_bias[r] or, when row_bias is null, per column
/// from col_seed[j]; written through arbitrary row/column strides (the
/// im2col conv scatters to NCHW).
template <int MR>
void micro_f64(const float* a, std::int64_t lda, const float* bp,
               std::int64_t kk, const float* row_bias, const double* col_seed,
               float* out, std::int64_t row_stride, std::int64_t col_stride,
               std::int64_t ncols) {
  double acc[MR][kNr];
  for (int r = 0; r < MR; ++r) {
    for (std::int64_t j = 0; j < kNr; ++j) {
      acc[r][j] = row_bias != nullptr ? static_cast<double>(row_bias[r])
                                      : col_seed[j];
    }
  }
  for (std::int64_t k = 0; k < kk; ++k) {
    const float* brow = bp + k * kNr;
    double bd[kNr];
    for (std::int64_t j = 0; j < kNr; ++j) {
      bd[j] = static_cast<double>(brow[j]);
    }
    for (int r = 0; r < MR; ++r) {
      const double av = static_cast<double>(a[r * lda + k]);
      for (std::int64_t j = 0; j < kNr; ++j) {
        acc[r][j] += av * bd[j];
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (std::int64_t j = 0; j < ncols; ++j) {
      out[r * row_stride + j * col_stride] = static_cast<float>(acc[r][j]);
    }
  }
}

/// All kNr-wide panels of one A block against packed B, f64 accumulation:
/// the scalar twin of avx2::block_gemm. a: [rows x kk] row-major, bias:
/// per output column or per output row (axis; may be null), out indexed
/// as out + r*row_stride + j*col_stride.
void block_gemm_f64(const float* a, std::int64_t lda, std::int64_t rows,
                    const float* b_panels, std::int64_t kk, std::int64_t n,
                    const float* bias, kernels::BiasAxis axis, float* out,
                    std::int64_t row_stride, std::int64_t col_stride) {
  const bool per_row = bias != nullptr && axis == kernels::BiasAxis::kRows;
  const std::int64_t panels = (n + kNr - 1) / kNr;
  for (std::int64_t p = 0; p < panels; ++p) {
    const float* bp = b_panels + p * kk * kNr;
    const std::int64_t j0 = p * kNr;
    const std::int64_t ncols = std::min(kNr, n - j0);
    double col_seed[kNr] = {};
    if (bias != nullptr && !per_row) {
      for (std::int64_t j = 0; j < ncols; ++j) {
        col_seed[j] = static_cast<double>(bias[j0 + j]);
      }
    }
    float* out_panel = out + j0 * col_stride;
    std::int64_t r = 0;
    for (; r + 2 <= rows; r += 2) {
      micro_f64<2>(a + r * lda, lda, bp, kk, per_row ? bias + r : nullptr,
                   col_seed, out_panel + r * row_stride, row_stride,
                   col_stride, ncols);
    }
    for (; r < rows; ++r) {
      micro_f64<1>(a + r * lda, lda, bp, kk, per_row ? bias + r : nullptr,
                   col_seed, out_panel + r * row_stride, row_stride,
                   col_stride, ncols);
    }
  }
}

/// MR input rows against eight weight rows: one double accumulator per
/// output seeded from its bias lane, one exact double product added per
/// k in ascending order.
template <int MR>
void linear_tile_f64(const float* in, std::int64_t in_f,
                     const float* const* w_rows, const float* seed,
                     float* out, std::int64_t ldo, std::int64_t ncols) {
  double acc[MR][kNr];
  for (int r = 0; r < MR; ++r) {
    for (std::int64_t j = 0; j < kNr; ++j) {
      acc[r][j] = static_cast<double>(seed[j]);
    }
  }
  for (std::int64_t k = 0; k < in_f; ++k) {
    double wd[kNr];
    for (std::int64_t j = 0; j < kNr; ++j) {
      wd[j] = static_cast<double>(w_rows[j][k]);
    }
    for (int r = 0; r < MR; ++r) {
      const double xv = static_cast<double>(in[r * in_f + k]);
      for (std::int64_t j = 0; j < kNr; ++j) {
        acc[r][j] += xv * wd[j];
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (std::int64_t j = 0; j < ncols; ++j) {
      out[r * ldo + j] = static_cast<float>(acc[r][j]);
    }
  }
}

/// Scalar twin of avx2::linear_panel: input rows two at a time against
/// one panel of eight weight rows.
void linear_panel_f64(const float* in, std::int64_t batch, std::int64_t in_f,
                      const float* const* w_rows, const float* seed,
                      float* out, std::int64_t ldo, std::int64_t ncols) {
  std::int64_t n = 0;
  for (; n + 2 <= batch; n += 2) {
    linear_tile_f64<2>(in + n * in_f, in_f, w_rows, seed, out + n * ldo, ldo,
                       ncols);
  }
  if (n < batch) {
    linear_tile_f64<1>(in + n * in_f, in_f, w_rows, seed, out + n * ldo, ldo,
                       ncols);
  }
}

// ---------------------------------------------------------------------------
// im2col-on-the-fly panel builder
// ---------------------------------------------------------------------------

/// Writes the im2col rows for output positions [p0, p0 + rows) of one
/// image, channels [c0, c0 + channels), into `panel` ([rows x taps],
/// taps ordered channel-major then kernel-row then kernel-column — the
/// reference conv2d's accumulation order). Padding taps are 0.
void build_im2col_panel(const float* image, std::int64_t in_c,
                        std::int64_t in_h, std::int64_t in_w,
                        std::int64_t c0, std::int64_t channels,
                        const Conv2dParams& p, std::int64_t out_w,
                        std::int64_t p0, std::int64_t rows, std::int64_t kh,
                        std::int64_t kw, float* panel) {
  (void)in_c;
  const std::int64_t taps_per_c = kh * kw;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t oy = (p0 + r) / out_w;
    const std::int64_t ox = (p0 + r) % out_w;
    const std::int64_t iy0 = oy * p.stride_h - p.pad_h;
    const std::int64_t ix0 = ox * p.stride_w - p.pad_w;
    float* dst = panel + r * channels * taps_per_c;
    for (std::int64_t ic = 0; ic < channels; ++ic) {
      const float* plane = image + (c0 + ic) * in_h * in_w;
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const std::int64_t iy = iy0 + ky * p.dilation_h;
        if (iy < 0 || iy >= in_h) {
          for (std::int64_t kx = 0; kx < kw; ++kx) {
            *dst++ = 0.0F;
          }
          continue;
        }
        const float* row = plane + iy * in_w;
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          const std::int64_t ix = ix0 + kx * p.dilation_w;
          *dst++ = (ix < 0 || ix >= in_w) ? 0.0F : row[ix];
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Channelwise kernels (depthwise K x K, FuSe 1 x K and K x 1)
// ---------------------------------------------------------------------------

/// The [x_lo, x_hi) output-x range whose taps kx in [0, kw) all land in
/// bounds (so the inner loop can skip the per-tap checks).
std::pair<std::int64_t, std::int64_t> interior_x(std::int64_t out_w,
                                                 std::int64_t in_w,
                                                 std::int64_t kw,
                                                 std::int64_t stride,
                                                 std::int64_t pad,
                                                 std::int64_t dilation) {
  std::int64_t lo = (pad + stride - 1) / stride;  // first ox with ix >= 0
  std::int64_t hi = (in_w - 1 - (kw - 1) * dilation + pad) / stride + 1;
  lo = std::clamp<std::int64_t>(lo, 0, out_w);
  hi = std::clamp<std::int64_t>(hi, lo, out_w);
  return {lo, hi};
}

/// One depthwise channel: out(oy, ox) = bias + sum_{ky,kx} taps, double
/// accumulation in (ky, kx) order with out-of-bounds taps skipped —
/// exactly the reference conv2d order for groups == C.
void depthwise_channel(const float* plane, std::int64_t in_h,
                       std::int64_t in_w, const float* w, std::int64_t kh,
                       std::int64_t kw, const Conv2dParams& p,
                       double bias_value, float* out, std::int64_t out_h,
                       std::int64_t out_w) {
  const auto [x_lo, x_hi] =
      interior_x(out_w, in_w, kw, p.stride_w, p.pad_w, p.dilation_w);
  for (std::int64_t oy = 0; oy < out_h; ++oy) {
    const std::int64_t iy0 = oy * p.stride_h - p.pad_h;
    float* out_row = out + oy * out_w;
    // Edge columns: every tap bounds-checked (same skip set as reference).
    const auto edge = [&](std::int64_t ox) {
      double acc = bias_value;
      const std::int64_t ix0 = ox * p.stride_w - p.pad_w;
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const std::int64_t iy = iy0 + ky * p.dilation_h;
        if (iy < 0 || iy >= in_h) {
          continue;
        }
        const float* row = plane + iy * in_w;
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          const std::int64_t ix = ix0 + kx * p.dilation_w;
          if (ix < 0 || ix >= in_w) {
            continue;
          }
          acc += static_cast<double>(row[ix]) *
                 static_cast<double>(w[ky * kw + kx]);
        }
      }
      out_row[ox] = static_cast<float>(acc);
    };
    for (std::int64_t ox = 0; ox < x_lo; ++ox) {
      edge(ox);
    }
    // Interior: all kx in bounds; only ky still needs its row check.
    for (std::int64_t ox = x_lo; ox < x_hi; ++ox) {
      double acc = bias_value;
      const std::int64_t ix0 = ox * p.stride_w - p.pad_w;
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const std::int64_t iy = iy0 + ky * p.dilation_h;
        if (iy < 0 || iy >= in_h) {
          continue;
        }
        const float* row = plane + iy * in_w + ix0;
        const float* wk = w + ky * kw;
        if (kw == 3 && p.dilation_w == 1) {
          acc += static_cast<double>(row[0]) * static_cast<double>(wk[0]);
          acc += static_cast<double>(row[1]) * static_cast<double>(wk[1]);
          acc += static_cast<double>(row[2]) * static_cast<double>(wk[2]);
        } else {
          for (std::int64_t kx = 0; kx < kw; ++kx) {
            acc += static_cast<double>(row[kx * p.dilation_w]) *
                   static_cast<double>(wk[kx]);
          }
        }
      }
      out_row[ox] = static_cast<float>(acc);
    }
    for (std::int64_t ox = x_hi; ox < out_w; ++ox) {
      edge(ox);
    }
  }
}

/// One FuSe row channel (1 x K kernel): each output row reads one input
/// row; accumulation over kx in order.
void fuse_row_channel(const float* plane, std::int64_t in_h,
                      std::int64_t in_w, const float* w, std::int64_t kw,
                      const Conv2dParams& p, double bias_value, float* out,
                      std::int64_t out_h, std::int64_t out_w) {
  const auto [x_lo, x_hi] =
      interior_x(out_w, in_w, kw, p.stride_w, p.pad_w, p.dilation_w);
  for (std::int64_t oy = 0; oy < out_h; ++oy) {
    const std::int64_t iy = oy * p.stride_h - p.pad_h;
    float* out_row = out + oy * out_w;
    if (iy < 0 || iy >= in_h) {
      // The single kernel row is out of bounds: only the bias survives.
      for (std::int64_t ox = 0; ox < out_w; ++ox) {
        out_row[ox] = static_cast<float>(bias_value);
      }
      continue;
    }
    const float* row = plane + iy * in_w;
    const auto edge = [&](std::int64_t ox) {
      double acc = bias_value;
      const std::int64_t ix0 = ox * p.stride_w - p.pad_w;
      for (std::int64_t kx = 0; kx < kw; ++kx) {
        const std::int64_t ix = ix0 + kx * p.dilation_w;
        if (ix < 0 || ix >= in_w) {
          continue;
        }
        acc += static_cast<double>(row[ix]) * static_cast<double>(w[kx]);
      }
      out_row[ox] = static_cast<float>(acc);
    };
    for (std::int64_t ox = 0; ox < x_lo; ++ox) {
      edge(ox);
    }
    for (std::int64_t ox = x_lo; ox < x_hi; ++ox) {
      double acc = bias_value;
      const float* base = row + ox * p.stride_w - p.pad_w;
      if (kw == 3 && p.dilation_w == 1) {
        acc += static_cast<double>(base[0]) * static_cast<double>(w[0]);
        acc += static_cast<double>(base[1]) * static_cast<double>(w[1]);
        acc += static_cast<double>(base[2]) * static_cast<double>(w[2]);
      } else {
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          acc += static_cast<double>(base[kx * p.dilation_w]) *
                 static_cast<double>(w[kx]);
        }
      }
      out_row[ox] = static_cast<float>(acc);
    }
    for (std::int64_t ox = x_hi; ox < out_w; ++ox) {
      edge(ox);
    }
  }
}

/// One FuSe column channel (K x 1 kernel): processed a whole output row
/// at a time with a double accumulator per column, taps in ky order —
/// turning the strided column walk into contiguous row sweeps.
void fuse_col_channel(const float* plane, std::int64_t in_h,
                      std::int64_t in_w, const float* w, std::int64_t kh,
                      const Conv2dParams& p, double bias_value, float* out,
                      std::int64_t out_h, std::int64_t out_w,
                      std::vector<double>& acc) {
  // The single tap column: ix = ox * stride - pad for every ky.
  const auto [x_lo, x_hi] =
      interior_x(out_w, in_w, /*kw=*/1, p.stride_w, p.pad_w, p.dilation_w);
  acc.resize(static_cast<std::size_t>(out_w));
  for (std::int64_t oy = 0; oy < out_h; ++oy) {
    std::fill(acc.begin(), acc.end(), bias_value);
    const std::int64_t iy0 = oy * p.stride_h - p.pad_h;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      const std::int64_t iy = iy0 + ky * p.dilation_h;
      if (iy < 0 || iy >= in_h) {
        continue;
      }
      const float* row = plane + iy * in_w;
      const double wk = static_cast<double>(w[ky]);
      for (std::int64_t ox = x_lo; ox < x_hi; ++ox) {
        acc[static_cast<std::size_t>(ox)] +=
            static_cast<double>(row[ox * p.stride_w - p.pad_w]) * wk;
      }
    }
    float* out_row = out + oy * out_w;
    for (std::int64_t ox = 0; ox < out_w; ++ox) {
      out_row[ox] = static_cast<float>(acc[static_cast<std::size_t>(ox)]);
    }
  }
}

/// Dispatches one channel of the channelwise family.
enum class ChannelwiseKind { kDepthwise, kFuseRow, kFuseCol };

ChannelwiseKind classify_channelwise(std::int64_t kh, std::int64_t kw) {
  if (kh == 1 && kw > 1) {
    return ChannelwiseKind::kFuseRow;
  }
  if (kw == 1 && kh > 1) {
    return ChannelwiseKind::kFuseCol;
  }
  return ChannelwiseKind::kDepthwise;
}

Tensor conv2d_channelwise_fast(const Tensor& input, const Tensor& weight,
                               const Tensor* bias, const Conv2dParams& p) {
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t channels = input.shape().dim(1);
  const std::int64_t in_h = input.shape().dim(2);
  const std::int64_t in_w = input.shape().dim(3);
  const std::int64_t kh = weight.shape().dim(2);
  const std::int64_t kw = weight.shape().dim(3);
  const std::int64_t out_h =
      conv_out_dim(in_h, kh, p.stride_h, p.pad_h, p.dilation_h);
  const std::int64_t out_w =
      conv_out_dim(in_w, kw, p.stride_w, p.pad_w, p.dilation_w);
  const ChannelwiseKind kind = classify_channelwise(kh, kw);
  switch (kind) {
    case ChannelwiseKind::kDepthwise:
      FUSE_KERNEL_COUNTER("kernels.fast.depthwise");
      break;
    case ChannelwiseKind::kFuseRow:
      FUSE_KERNEL_COUNTER("kernels.fast.fuse_row");
      break;
    case ChannelwiseKind::kFuseCol:
      FUSE_KERNEL_COUNTER("kernels.fast.fuse_col");
      break;
  }

  // The AVX2 channelwise kernels load interior taps contiguously, which
  // needs unit stride/dilation along x; other geometries run the scalar
  // kernels under every ISA.
  const KernelIsa isa = note_isa(p.stride_w == 1 && p.dilation_w == 1);
  const std::int64_t eff_kw = kind == ChannelwiseKind::kFuseCol ? 1 : kw;
  const auto [x_lo, x_hi] =
      interior_x(out_w, in_w, eff_kw, p.stride_w, p.pad_w, p.dilation_w);
  const kernels::ConvGeom geom = to_geom(p);

  Tensor output(Shape{batch, channels, out_h, out_w});
  const float* in_ptr = input.data();
  const float* w_ptr = weight.data();
  const float* bias_ptr = bias != nullptr ? bias->data() : nullptr;
  float* out_ptr = output.data();
  const std::int64_t in_plane = in_h * in_w;
  const std::int64_t out_plane = out_h * out_w;

  // One output plane per (image, channel).
  std::vector<double> acc;  // fuse_col_channel's row accumulator
  for (std::int64_t nc = 0; nc < batch * channels; ++nc) {
    const std::int64_t c = nc % channels;
    const float* plane = in_ptr + nc * in_plane;
    const float* w = w_ptr + c * kh * kw;
    const double bias_value =
        bias_ptr != nullptr ? static_cast<double>(bias_ptr[c]) : 0.0;
    float* out = out_ptr + nc * out_plane;
    if (isa == KernelIsa::kAvx2) {
      const float bias_f = bias_ptr != nullptr ? bias_ptr[c] : 0.0F;
      switch (kind) {
        case ChannelwiseKind::kDepthwise:
          kernels::avx2::depthwise_channel(plane, in_h, in_w, w, kh, kw,
                                           geom, bias_f, out, out_h, out_w,
                                           x_lo, x_hi);
          break;
        case ChannelwiseKind::kFuseRow:
          kernels::avx2::fuse_row_channel(plane, in_h, in_w, w, kw, geom,
                                          bias_f, out, out_h, out_w, x_lo,
                                          x_hi);
          break;
        case ChannelwiseKind::kFuseCol:
          kernels::avx2::fuse_col_channel(plane, in_h, in_w, w, kh, geom,
                                          bias_f, out, out_h, out_w, x_lo,
                                          x_hi);
          break;
      }
      continue;
    }
    switch (kind) {
      case ChannelwiseKind::kDepthwise:
        depthwise_channel(plane, in_h, in_w, w, kh, kw, p, bias_value, out,
                          out_h, out_w);
        break;
      case ChannelwiseKind::kFuseRow:
        fuse_row_channel(plane, in_h, in_w, w, kw, p, bias_value, out, out_h,
                         out_w);
        break;
      case ChannelwiseKind::kFuseCol:
        fuse_col_channel(plane, in_h, in_w, w, kh, p, bias_value, out, out_h,
                         out_w, acc);
        break;
    }
  }
  return output;
}

// ---------------------------------------------------------------------------
// Dense / grouped conv through im2col-on-the-fly GEMM
// ---------------------------------------------------------------------------

Tensor conv2d_gemm_fast(const Tensor& input, const Tensor& weight,
                        const Tensor* bias, const Conv2dParams& p) {
  FUSE_KERNEL_COUNTER("kernels.fast.conv2d");
  // im2col linearizes every geometry, so the GEMM path vectorizes
  // unconditionally.
  const KernelIsa isa = note_isa();
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t in_c = input.shape().dim(1);
  const std::int64_t in_h = input.shape().dim(2);
  const std::int64_t in_w = input.shape().dim(3);
  const std::int64_t out_c = weight.shape().dim(0);
  const std::int64_t kh = weight.shape().dim(2);
  const std::int64_t kw = weight.shape().dim(3);
  const std::int64_t group_in = in_c / p.groups;
  const std::int64_t group_out = out_c / p.groups;
  const std::int64_t out_h =
      conv_out_dim(in_h, kh, p.stride_h, p.pad_h, p.dilation_h);
  const std::int64_t out_w =
      conv_out_dim(in_w, kw, p.stride_w, p.pad_w, p.dilation_w);
  const std::int64_t positions = out_h * out_w;
  const std::int64_t taps = group_in * kh * kw;

  Tensor output(Shape{batch, out_c, out_h, out_w});
  const float* in_ptr = input.data();
  const float* bias_ptr = bias != nullptr ? bias->data() : nullptr;
  float* out_ptr = output.data();
  const std::int64_t blocks = (positions + kMcConv - 1) / kMcConv;

  std::vector<float> b_panels;
  std::vector<float> panel(
      static_cast<std::size_t>(std::min(kMcConv, positions) * taps));
  for (std::int64_t g = 0; g < p.groups; ++g) {
    // Weight rows for this group's out channels are contiguous [taps]
    // slices in (ic, ky, kx) order — exactly the panel's k order.
    pack_bt_panels(weight.data() + g * group_out * taps, group_out, taps,
                   taps, b_panels);
    const float* panels = b_panels.data();
    const float* group_bias =
        bias_ptr != nullptr ? bias_ptr + g * group_out : nullptr;
    for (std::int64_t tile = 0; tile < batch * blocks; ++tile) {
      const std::int64_t n = tile / blocks;
      const std::int64_t p0 = (tile % blocks) * kMcConv;
      const std::int64_t rows = std::min(kMcConv, positions - p0);
      build_im2col_panel(in_ptr + n * in_c * in_h * in_w, in_c, in_h, in_w,
                         g * group_in, group_in, p, out_w, p0, rows, kh, kw,
                         panel.data());
      pack_bytes_counter().add(
          static_cast<std::uint64_t>(rows * taps) * sizeof(float));
      // Output element (row r, col j) lives at NCHW offset
      // (n, g*group_out + j, p0 + r): column stride = positions.
      float* out_base =
          out_ptr + (n * out_c + g * group_out) * positions + p0;
      const auto gemm = isa == KernelIsa::kAvx2 ? kernels::avx2::block_gemm
                                                : block_gemm_f64;
      gemm(panel.data(), taps, rows, panels, taps, group_out, group_bias,
           kernels::BiasAxis::kCols, out_base, /*row_stride=*/1,
           /*col_stride=*/positions);
    }
  }
  return output;
}

// ---------------------------------------------------------------------------
// Pointwise conv in the W x X orientation
// ---------------------------------------------------------------------------

/// True for the convolutions conv2d_pointwise_fast computes: 1x1,
/// stride 1, no padding, one group (dilation is moot for one tap).
bool is_pointwise(const Tensor& weight, const Conv2dParams& p) {
  return weight.shape().dim(2) == 1 && weight.shape().dim(3) == 1 &&
         p.stride_h == 1 && p.stride_w == 1 && p.pad_h == 0 && p.pad_w == 0 &&
         p.groups == 1;
}

/// out[n, oc, p] = bias[oc] + W[oc, :] . X[n, :, p]: weight rows stream
/// unpacked as the GEMM's A, each image's [in_c x positions] planes are
/// packed as B panels one position block at a time, and every output
/// row lands as a contiguous run of its NCHW plane. Each output still
/// sums bias, then input channels in ascending order — the im2col
/// route's sequence with the two FMA operands swapped.
Tensor conv2d_pointwise_fast(const Tensor& input, const Tensor& weight,
                             const Tensor* bias) {
  FUSE_KERNEL_COUNTER("kernels.fast.pointwise");
  const KernelIsa isa = note_isa();
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t in_c = input.shape().dim(1);
  const std::int64_t in_h = input.shape().dim(2);
  const std::int64_t in_w = input.shape().dim(3);
  const std::int64_t out_c = weight.shape().dim(0);
  const std::int64_t positions = in_h * in_w;
  const std::int64_t block_step = 2 * kNr;
  const std::int64_t block = std::max<std::int64_t>(
      block_step, kPointwiseBlockBytes /
                      (in_c * static_cast<std::int64_t>(sizeof(float))) /
                      block_step * block_step);

  Tensor output(Shape{batch, out_c, in_h, in_w});
  const float* bias_ptr = bias != nullptr ? bias->data() : nullptr;
  const auto gemm =
      isa == KernelIsa::kAvx2 ? kernels::avx2::block_gemm : block_gemm_f64;
  std::vector<float> b_panels;
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* image = input.data() + n * in_c * positions;
    float* out_image = output.data() + n * out_c * positions;
    for (std::int64_t p0 = 0; p0 < positions; p0 += block) {
      const std::int64_t cols = std::min(block, positions - p0);
      pack_b_panels(image + p0, in_c, cols, positions, b_panels);
      gemm(weight.data(), in_c, out_c, b_panels.data(), in_c, cols, bias_ptr,
           kernels::BiasAxis::kRows, out_image + p0,
           /*row_stride=*/positions, /*col_stride=*/1);
    }
  }
  return output;
}

}  // namespace

// ---------------------------------------------------------------------------
// Backend accessors
// ---------------------------------------------------------------------------

KernelBackend kernel_backend() {
  return backend_state().load(std::memory_order_relaxed);
}

void set_kernel_backend(KernelBackend backend) {
  backend_state().store(backend, std::memory_order_relaxed);
}

bool parse_kernel_backend(const std::string& name, KernelBackend* out) {
  if (name == "fast") {
    *out = KernelBackend::kFast;
    return true;
  }
  if (name == "reference" || name == "ref") {
    *out = KernelBackend::kReference;
    return true;
  }
  return false;
}

const char* kernel_backend_name(KernelBackend backend) {
  return backend == KernelBackend::kFast ? "fast" : "reference";
}

KernelIsa kernel_isa() { return isa_state().load(std::memory_order_relaxed); }

void set_kernel_isa(KernelIsa isa) {
  FUSE_CHECK(kernel_isa_available(isa))
      << "kernel ISA '" << kernel_isa_name(isa)
      << "' is not available on this machine (cpu: "
      << util::cpu_features().to_string() << ")";
  isa_state().store(isa, std::memory_order_relaxed);
}

bool kernel_isa_available(KernelIsa isa) {
  if (isa == KernelIsa::kScalar) {
    return true;
  }
  const util::CpuFeatures& cpu = util::cpu_features();
  return kernels::avx2::compiled() && cpu.avx2 && cpu.fma;
}

bool parse_kernel_isa(const std::string& name, KernelIsa* out) {
  if (name == "scalar") {
    *out = KernelIsa::kScalar;
    return true;
  }
  if (name == "avx2") {
    *out = KernelIsa::kAvx2;
    return true;
  }
  if (name == "auto") {
    *out = kernel_isa_available(KernelIsa::kAvx2) ? KernelIsa::kAvx2
                                                  : KernelIsa::kScalar;
    return true;
  }
  return false;
}

const char* kernel_isa_name(KernelIsa isa) {
  return isa == KernelIsa::kAvx2 ? "avx2" : "scalar";
}

namespace kernels {

// ---------------------------------------------------------------------------
// GEMM (float accumulation — nn::matmul's numerics)
// ---------------------------------------------------------------------------

void gemm_f32(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n) {
  FUSE_KERNEL_COUNTER("kernels.fast.gemm");
  const KernelIsa isa = note_isa();
  std::vector<float> b_panels;
  pack_b_panels(b, k, n, n, b_panels);
  const float* panels = b_panels.data();
  const std::int64_t panel_count = (n + kNr - 1) / kNr;
  const std::int64_t blocks = (m + kMcGemm - 1) / kMcGemm;
  for (std::int64_t block = 0; block < blocks; ++block) {
    const std::int64_t r0 = block * kMcGemm;
    const std::int64_t rows = std::min(kMcGemm, m - r0);
    if (isa == KernelIsa::kAvx2) {
      kernels::avx2::block_gemm(a + r0 * k, k, rows, panels, k, n,
                                /*bias=*/nullptr, BiasAxis::kCols,
                                c + r0 * n, /*row_stride=*/n,
                                /*col_stride=*/1);
      continue;
    }
    for (std::int64_t pn = 0; pn < panel_count; ++pn) {
      const float* bp = panels + pn * k * kNr;
      const std::int64_t j0 = pn * kNr;
      const std::int64_t ncols = std::min(kNr, n - j0);
      std::int64_t r = 0;
      for (; r + 4 <= rows; r += 4) {
        micro_f32<4>(a + (r0 + r) * k, k, bp, k, c + (r0 + r) * n + j0, n,
                     ncols);
      }
      for (; r < rows; ++r) {
        micro_f32<1>(a + (r0 + r) * k, k, bp, k, c + (r0 + r) * n + j0, n,
                     ncols);
      }
    }
  }
}

void gemm_f64(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n) {
  if (n == 1) {
    // A matrix-vector product: a padded 8-wide panel would be 7/8 zeros,
    // and consecutive rows are independent chains the core overlaps.
    for (std::int64_t r = 0; r < m; ++r) {
      const float* row = a + r * k;
      double acc = 0.0;
      for (std::int64_t i = 0; i < k; ++i) {
        acc += static_cast<double>(row[i]) * static_cast<double>(b[i]);
      }
      c[r] = static_cast<float>(acc);
    }
    return;
  }
  if (m == 1) {
    // A vector-matrix product: packing would copy all of B for one row,
    // while streaming B's rows reads it once, contiguously.
    std::vector<double> acc(static_cast<std::size_t>(n), 0.0);
    for (std::int64_t i = 0; i < k; ++i) {
      const double av = static_cast<double>(a[i]);
      const float* row = b + i * n;
      for (std::int64_t j = 0; j < n; ++j) {
        acc[static_cast<std::size_t>(j)] += av * static_cast<double>(row[j]);
      }
    }
    for (std::int64_t j = 0; j < n; ++j) {
      c[j] = static_cast<float>(acc[static_cast<std::size_t>(j)]);
    }
    return;
  }
  std::vector<float> b_panels;
  pack_b_panels(b, k, n, n, b_panels);
  if (kernel_isa() == KernelIsa::kAvx2) {
    kernels::avx2::block_gemm_f64(a, k, m, b_panels.data(), k, n, c, n);
    return;
  }
  block_gemm_f64(a, k, m, b_panels.data(), k, n, /*bias=*/nullptr,
                 BiasAxis::kCols, c, /*row_stride=*/n, /*col_stride=*/1);
}

void conv1d_lines_f64(const float* lines, const float* kernels, float* out,
                      std::int64_t num_lines, std::int64_t width,
                      std::int64_t taps) {
  if (kernel_isa() == KernelIsa::kAvx2) {
    kernels::avx2::conv1d_lines_f64(lines, num_lines, width, kernels, taps,
                                    out);
    return;
  }
  const std::int64_t out_w = width - taps + 1;
  std::vector<double> sum(static_cast<std::size_t>(out_w));
  for (std::int64_t line = 0; line < num_lines; ++line) {
    const float* window = lines + line * width;
    const float* kern = kernels + line * taps;
    std::fill(sum.begin(), sum.end(), 0.0);
    for (std::int64_t k = 0; k < taps; ++k) {
      const double weight = static_cast<double>(kern[k]);
      for (std::int64_t c = 0; c < out_w; ++c) {
        sum[static_cast<std::size_t>(c)] +=
            weight * static_cast<double>(window[c + k]);
      }
    }
    float* out_row = out + line * out_w;
    for (std::int64_t c = 0; c < out_w; ++c) {
      out_row[c] = static_cast<float>(sum[static_cast<std::size_t>(c)]);
    }
  }
}

Tensor matmul_fast(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.shape().dim(0);
  const std::int64_t k = a.shape().dim(1);
  const std::int64_t n = b.shape().dim(1);
  Tensor out(Shape{m, n});
  gemm_f32(a.data(), b.data(), out.data(), m, k, n);
  return out;
}

// ---------------------------------------------------------------------------
// conv2d / linear (double accumulation — the reference numerics)
// ---------------------------------------------------------------------------

Tensor conv2d_fast(const Tensor& input, const Tensor& weight,
                   const Tensor* bias, const Conv2dParams& params) {
  const std::int64_t in_c = input.shape().dim(1);
  const std::int64_t out_c = weight.shape().dim(0);
  if (params.groups == in_c && weight.shape().dim(1) == 1 &&
      out_c == in_c) {
    return conv2d_channelwise_fast(input, weight, bias, params);
  }
  if (is_pointwise(weight, params)) {
    return conv2d_pointwise_fast(input, weight, bias);
  }
  return conv2d_gemm_fast(input, weight, bias, params);
}

Tensor linear_fast(const Tensor& input, const Tensor& weight,
                   const Tensor* bias) {
  FUSE_KERNEL_COUNTER("kernels.fast.linear");
  const KernelIsa isa = note_isa();
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t in_f = input.shape().dim(1);
  const std::int64_t out_f = weight.shape().dim(0);
  Tensor out(Shape{batch, out_f});
  const float* w_ptr = weight.data();
  const float* bias_ptr = bias != nullptr ? bias->data() : nullptr;
  const auto panel = isa == KernelIsa::kAvx2 ? kernels::avx2::linear_panel
                                             : linear_panel_f64;
  // Eight weight rows per output panel, read in place: a tail panel
  // repeats its last row in the missing lanes and drops their results.
  for (std::int64_t j0 = 0; j0 < out_f; j0 += kNr) {
    const std::int64_t ncols = std::min(kNr, out_f - j0);
    const float* w_rows[kNr];
    float seed[kNr] = {};
    for (std::int64_t j = 0; j < kNr; ++j) {
      w_rows[j] = w_ptr + std::min(j0 + j, out_f - 1) * in_f;
      if (bias_ptr != nullptr && j < ncols) {
        seed[j] = bias_ptr[j0 + j];
      }
    }
    panel(input.data(), batch, in_f, w_rows, seed, out.data() + j0, out_f,
          ncols);
  }
  return out;
}

// ---------------------------------------------------------------------------
// INT8 kernels (int32 accumulation — order-insensitive)
// ---------------------------------------------------------------------------

Tensor conv2d_int8_fast(const QuantizedTensor& input,
                        const QuantizedTensor& weight,
                        const Conv2dParams& p) {
  FUSE_KERNEL_COUNTER("kernels.fast.conv2d_int8");
  const std::int64_t batch = input.shape.dim(0);
  const std::int64_t in_c = input.shape.dim(1);
  const std::int64_t in_h = input.shape.dim(2);
  const std::int64_t in_w = input.shape.dim(3);
  const std::int64_t out_c = weight.shape.dim(0);
  const std::int64_t kh = weight.shape.dim(2);
  const std::int64_t kw = weight.shape.dim(3);
  const std::int64_t group_in = in_c / p.groups;
  const std::int64_t group_out = out_c / p.groups;
  const std::int64_t out_h =
      conv_out_dim(in_h, kh, p.stride_h, p.pad_h, p.dilation_h);
  const std::int64_t out_w =
      conv_out_dim(in_w, kw, p.stride_w, p.pad_w, p.dilation_w);
  const std::int32_t zp_in = input.params.zero_point;
  const float requant_scale = input.params.scale * weight.params.scale;

  Tensor output(Shape{batch, out_c, out_h, out_w});
  const std::int8_t* in_ptr = input.data.data();
  const std::int8_t* w_ptr = weight.data.data();
  float* out_ptr = output.data();
  const auto [x_lo, x_hi] =
      interior_x(out_w, in_w, kw, p.stride_w, p.pad_w, p.dilation_w);
  // The AVX2 plane kernel loads interior taps contiguously (needs unit
  // x stride/dilation); int32 accumulation keeps it bit-exact anyway.
  const KernelIsa isa = note_isa(p.stride_w == 1 && p.dilation_w == 1);
  const kernels::ConvGeom geom = to_geom(p);

  // One output plane per (image, output channel); int32 sums are
  // order-exact.
  for (std::int64_t noc = 0; noc < batch * out_c; ++noc) {
    const std::int64_t n = noc / out_c;
    const std::int64_t oc = noc % out_c;
    const std::int64_t group = oc / group_out;
    const std::int8_t* w_oc = w_ptr + oc * group_in * kh * kw;
    float* out_plane = out_ptr + noc * out_h * out_w;
    const std::int8_t* image = in_ptr + n * in_c * in_h * in_w;
    if (isa == KernelIsa::kAvx2) {
      kernels::avx2::conv2d_int8_plane(
          image + group * group_in * in_h * in_w, group_in, in_h, in_w,
          w_oc, kh, kw, geom, zp_in, requant_scale, out_plane, out_h,
          out_w, x_lo, x_hi);
      continue;
    }
    for (std::int64_t oy = 0; oy < out_h; ++oy) {
      const std::int64_t iy0 = oy * p.stride_h - p.pad_h;
      for (std::int64_t ox = 0; ox < out_w; ++ox) {
        const std::int64_t ix0 = ox * p.stride_w - p.pad_w;
        const bool interior = ox >= x_lo && ox < x_hi;
        std::int32_t acc = 0;
        for (std::int64_t ic = 0; ic < group_in; ++ic) {
          const std::int8_t* plane =
              image + (group * group_in + ic) * in_h * in_w;
          const std::int8_t* w_ic = w_oc + ic * kh * kw;
          for (std::int64_t ky = 0; ky < kh; ++ky) {
            const std::int64_t iy = iy0 + ky * p.dilation_h;
            if (iy < 0 || iy >= in_h) {
              continue;
            }
            const std::int8_t* row = plane + iy * in_w;
            const std::int8_t* w_ky = w_ic + ky * kw;
            if (interior) {
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                acc += (static_cast<std::int32_t>(
                            row[ix0 + kx * p.dilation_w]) -
                        zp_in) *
                       static_cast<std::int32_t>(w_ky[kx]);
              }
            } else {
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t ix = ix0 + kx * p.dilation_w;
                if (ix < 0 || ix >= in_w) {
                  continue;
                }
                acc += (static_cast<std::int32_t>(row[ix]) - zp_in) *
                       static_cast<std::int32_t>(w_ky[kx]);
              }
            }
          }
        }
        out_plane[oy * out_w + ox] =
            requant_scale * static_cast<float>(acc);
      }
    }
  }
  return output;
}

Tensor linear_int8_fast(const QuantizedTensor& input,
                        const QuantizedTensor& weight) {
  FUSE_KERNEL_COUNTER("kernels.fast.linear_int8");
  const KernelIsa isa = note_isa();
  const std::int64_t batch = input.shape.dim(0);
  const std::int64_t in_f = input.shape.dim(1);
  const std::int64_t out_f = weight.shape.dim(0);
  const std::int32_t zp_in = input.params.zero_point;
  const float requant_scale = input.params.scale * weight.params.scale;
  Tensor output(Shape{batch, out_f});
  const std::int8_t* in_ptr = input.data.data();
  const std::int8_t* w_ptr = weight.data.data();
  float* out_ptr = output.data();
  constexpr std::int64_t kBlock = 32;
  const std::int64_t blocks = (out_f + kBlock - 1) / kBlock;
  for (std::int64_t block = 0; block < blocks; ++block) {
    const std::int64_t o0 = block * kBlock;
    const std::int64_t o1 = std::min(o0 + kBlock, out_f);
    for (std::int64_t n = 0; n < batch; ++n) {
      const std::int8_t* row = in_ptr + n * in_f;
      for (std::int64_t o = o0; o < o1; ++o) {
        const std::int8_t* w_row = w_ptr + o * in_f;
        std::int32_t acc = 0;
        if (isa == KernelIsa::kAvx2) {
          acc = kernels::avx2::linear_int8_dot(row, w_row, in_f, zp_in);
        } else {
          for (std::int64_t i = 0; i < in_f; ++i) {
            acc += (static_cast<std::int32_t>(row[i]) - zp_in) *
                   static_cast<std::int32_t>(w_row[i]);
          }
        }
        out_ptr[n * out_f + o] = requant_scale * static_cast<float>(acc);
      }
    }
  }
  return output;
}

// ---------------------------------------------------------------------------
// Training backward passes
// ---------------------------------------------------------------------------

Tensor conv2d_backward_fast(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output,
                            const Conv2dParams& p, Tensor* weight_grad,
                            Tensor* bias_grad) {
  FUSE_KERNEL_COUNTER("kernels.fast.conv2d_backward");
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t in_c = input.shape().dim(1);
  const std::int64_t in_h = input.shape().dim(2);
  const std::int64_t in_w = input.shape().dim(3);
  const std::int64_t out_c = grad_output.shape().dim(1);
  const std::int64_t out_h = grad_output.shape().dim(2);
  const std::int64_t out_w = grad_output.shape().dim(3);
  const std::int64_t kh = weight.shape().dim(2);
  const std::int64_t kw = weight.shape().dim(3);
  const std::int64_t group_in = in_c / p.groups;
  const std::int64_t group_out = out_c / p.groups;

  const float* in_ptr = input.data();
  const float* w_ptr = weight.data();
  const float* go_ptr = grad_output.data();
  float* wg_ptr = weight_grad->data();
  float* bg_ptr = bias_grad->data();

  Tensor grad_input(input.shape());
  float* gi_ptr = grad_input.data();

  // Pass 1 — grad_input, image by image. Loop order inside an image
  // matches the reference exactly: oc, oy, ox, ic, ky, kx with go == 0
  // skipped.
  for (std::int64_t n = 0; n < batch; ++n) {
    float* gi_image = gi_ptr + n * in_c * in_h * in_w;
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      const std::int64_t group = oc / group_out;
      const float* go_plane =
          go_ptr + (n * out_c + oc) * out_h * out_w;
      const float* w_oc = w_ptr + oc * group_in * kh * kw;
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        const std::int64_t iy0 = oy * p.stride_h - p.pad_h;
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          const float go = go_plane[oy * out_w + ox];
          if (go == 0.0F) {
            continue;
          }
          const std::int64_t ix0 = ox * p.stride_w - p.pad_w;
          for (std::int64_t ic = 0; ic < group_in; ++ic) {
            float* gi_plane =
                gi_image + (group * group_in + ic) * in_h * in_w;
            const float* w_ic = w_oc + ic * kh * kw;
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              const std::int64_t iy = iy0 + ky * p.dilation_h;
              if (iy < 0 || iy >= in_h) {
                continue;
              }
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t ix = ix0 + kx * p.dilation_w;
                if (ix < 0 || ix >= in_w) {
                  continue;
                }
                gi_plane[iy * in_w + ix] += go * w_ic[ky * kw + kx];
              }
            }
          }
        }
      }
    }
  }

  // Pass 2 — weight and bias gradients, output channel by output channel.
  // For a fixed oc the reference visits (n, oy, ox) ascending — preserved
  // here.
  for (std::int64_t oc = 0; oc < out_c; ++oc) {
    const std::int64_t group = oc / group_out;
    float* wg_oc = wg_ptr + oc * group_in * kh * kw;
    for (std::int64_t n = 0; n < batch; ++n) {
      const float* go_plane = go_ptr + (n * out_c + oc) * out_h * out_w;
      const float* in_image = in_ptr + n * in_c * in_h * in_w;
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        const std::int64_t iy0 = oy * p.stride_h - p.pad_h;
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          const float go = go_plane[oy * out_w + ox];
          if (go == 0.0F) {
            continue;
          }
          bg_ptr[oc] += go;
          const std::int64_t ix0 = ox * p.stride_w - p.pad_w;
          for (std::int64_t ic = 0; ic < group_in; ++ic) {
            const float* in_plane =
                in_image + (group * group_in + ic) * in_h * in_w;
            float* wg_ic = wg_oc + ic * kh * kw;
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              const std::int64_t iy = iy0 + ky * p.dilation_h;
              if (iy < 0 || iy >= in_h) {
                continue;
              }
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t ix = ix0 + kx * p.dilation_w;
                if (ix < 0 || ix >= in_w) {
                  continue;
                }
                wg_ic[ky * kw + kx] += go * in_plane[iy * in_w + ix];
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

Tensor linear_backward_fast(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, Tensor* weight_grad,
                            Tensor* bias_grad) {
  FUSE_KERNEL_COUNTER("kernels.fast.linear_backward");
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t in_f = input.shape().dim(1);
  const std::int64_t out_f = grad_output.shape().dim(1);
  const float* in_ptr = input.data();
  const float* w_ptr = weight.data();
  const float* go_ptr = grad_output.data();
  float* wg_ptr = weight_grad->data();
  float* bg_ptr = bias_grad->data();

  Tensor grad_input(input.shape());
  float* gi_ptr = grad_input.data();

  // Pass 1 — grad_input rows (example by example, o ascending inside).
  for (std::int64_t n = 0; n < batch; ++n) {
    float* gi_row = gi_ptr + n * in_f;
    const float* go_row = go_ptr + n * out_f;
    for (std::int64_t o = 0; o < out_f; ++o) {
      const float go = go_row[o];
      if (go == 0.0F) {
        continue;
      }
      const float* w_row = w_ptr + o * in_f;
      for (std::int64_t i = 0; i < in_f; ++i) {
        gi_row[i] += go * w_row[i];
      }
    }
  }

  // Pass 2 — weight/bias gradients (output feature by output feature, n
  // ascending inside — the reference order for a fixed o).
  for (std::int64_t o = 0; o < out_f; ++o) {
    float* wg_row = wg_ptr + o * in_f;
    for (std::int64_t n = 0; n < batch; ++n) {
      const float go = go_ptr[n * out_f + o];
      if (go == 0.0F) {
        continue;
      }
      bg_ptr[o] += go;
      const float* in_row = in_ptr + n * in_f;
      for (std::int64_t i = 0; i < in_f; ++i) {
        wg_row[i] += go * in_row[i];
      }
    }
  }
  return grad_input;
}

// ---------------------------------------------------------------------------
// Marshalling helpers shared with the systolic executor
// ---------------------------------------------------------------------------

void transpose(const float* src, std::int64_t rows, std::int64_t cols,
               float* dst) {
  // Square blocks keep both the rows read and the rows written in L1.
  constexpr std::int64_t kBlock = 16;
  for (std::int64_t r0 = 0; r0 < rows; r0 += kBlock) {
    const std::int64_t r1 = std::min(rows, r0 + kBlock);
    for (std::int64_t c0 = 0; c0 < cols; c0 += kBlock) {
      const std::int64_t c1 = std::min(cols, c0 + kBlock);
      for (std::int64_t c = c0; c < c1; ++c) {
        for (std::int64_t r = r0; r < r1; ++r) {
          dst[c * rows + r] = src[r * cols + c];
        }
      }
    }
  }
}

Tensor flatten_filters(const Tensor& weight) {
  FUSE_CHECK(weight.shape().rank() == 4)
      << "flatten_filters expects [C_out, C_in/g, Kh, Kw], got "
      << weight.shape().to_string();
  const std::int64_t out_c = weight.shape().dim(0);
  const std::int64_t taps = weight.shape().dim(1) * weight.shape().dim(2) *
                            weight.shape().dim(3);
  // Filter oc is the contiguous row weight[oc] of `taps` values.
  Tensor filters(Shape{taps, out_c});
  transpose(weight.data(), out_c, taps, filters.data());
  return filters;
}

Tensor transpose_2d(const Tensor& w) {
  FUSE_CHECK(w.shape().rank() == 2)
      << "transpose_2d expects a rank-2 tensor, got "
      << w.shape().to_string();
  const std::int64_t rows = w.shape().dim(0);
  const std::int64_t cols = w.shape().dim(1);
  Tensor out(Shape{cols, rows});
  transpose(w.data(), rows, cols, out.data());
  return out;
}

}  // namespace kernels

}  // namespace fuse::nn
