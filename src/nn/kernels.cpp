#include "nn/kernels.hpp"

#include <algorithm>
#include <vector>

#include "nn/kernels_isa.hpp"
#include "tensor/im2col.hpp"
#include "util/check.hpp"
#include "util/cpu_features.hpp"
#include "util/telemetry.hpp"

namespace fuse::nn {

using tensor::Shape;
using tensor::conv_out_dim;

namespace {

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

/// Fails unless `isa` runs here: no kernel executes what the CPU lacks.
void check_isa(KernelIsa isa) {
  FUSE_CHECK(kernel_isa_available(isa))
      << "kernel ISA '" << kernel_isa_name(isa)
      << "' is not available on this machine (cpu: "
      << util::cpu_features().to_string() << ")";
}

/// Checks the ISA a fast forward kernel runs with and bumps the matching
/// kernels.dispatch.{avx2,scalar} counter. The backward passes are
/// scalar-only by design and don't go through here — see the dispatch
/// table in docs/kernels.md.
void note_isa(KernelIsa isa) {
  check_isa(isa);
  if (isa == KernelIsa::kAvx2) {
    FUSE_KERNEL_COUNTER("kernels.dispatch.avx2");
  } else {
    FUSE_KERNEL_COUNTER("kernels.dispatch.scalar");
  }
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
// Bytes of packed B panels per GEMM-conv position block (at least two
// panels of positions).
constexpr std::int64_t kConvBlockBytes = 64 * 1024;

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

/// Copies every tap of one panel whose kNr positions sit on one output
/// row with all taps in bounds: tap (ic, ky, kx) of the panel is kNr
/// input values `stride` apart, starting at `first` offset by the tap.
/// S is the stride when it is a compile-time constant (0: read `stride`).
/// pack_im2col_panels fixes it at 2, the stride of every network's stem:
/// with constant offsets the AVX2 stem legs ran 1.4x faster than with the
/// runtime form.
template <std::int64_t S>
void copy_panel_runs(const float* first, std::int64_t channels,
                     std::int64_t plane, std::int64_t kh, std::int64_t kw,
                     std::int64_t row_step, std::int64_t col_step,
                     std::int64_t stride, float* dst) {
  const std::int64_t step = S != 0 ? S : stride;
  for (std::int64_t ic = 0; ic < channels; ++ic) {
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      const float* row = first + ic * plane + ky * row_step;
      for (std::int64_t kx = 0; kx < kw; ++kx) {
        const float* src = row + kx * col_step;
        for (std::int64_t j = 0; j < kNr; ++j) {
          dst[j] = src[j * step];
        }
        dst += kNr;
      }
    }
  }
}

/// Packs the im2col columns of output positions [p0, p0 + cols) of one
/// image's `channels` input planes as pack_b_panels packs B:
/// ceil(cols / kNr) panels of kNr positions, each k-major over the taps
/// in (ic, ky, kx) order — the reference conv2d's accumulation order —
/// with padding taps and a last panel's missing positions 0. A panel
/// whose positions sit on one output row with every tap in bounds is
/// copied as strided runs; a border panel, or one that straddles two
/// output rows, checks each tap.
void pack_im2col_panels(const float* image, std::int64_t channels,
                        std::int64_t in_h, std::int64_t in_w,
                        std::int64_t kh, std::int64_t kw,
                        const Conv2dParams& p, std::int64_t out_w,
                        std::int64_t p0, std::int64_t cols,
                        std::vector<float>& out) {
  const std::int64_t taps = channels * kh * kw;
  const std::int64_t panels = (cols + kNr - 1) / kNr;
  const std::int64_t plane = in_h * in_w;
  const std::int64_t row_step = p.dilation_h * in_w;
  out.resize(static_cast<std::size_t>(panels * taps * kNr));
  for (std::int64_t q = 0; q < panels; ++q) {
    float* dst = out.data() + q * taps * kNr;
    const std::int64_t first = p0 + q * kNr;
    const std::int64_t count = std::min(kNr, p0 + cols - first);
    const std::int64_t iy0 = first / out_w * p.stride_h - p.pad_h;
    const std::int64_t ix0 = first % out_w * p.stride_w - p.pad_w;
    if (count == kNr && first % out_w + kNr <= out_w && iy0 >= 0 &&
        iy0 + (kh - 1) * p.dilation_h < in_h && ix0 >= 0 &&
        ix0 + (kNr - 1) * p.stride_w + (kw - 1) * p.dilation_w < in_w) {
      const float* start = image + iy0 * in_w + ix0;
      if (p.stride_w == 2) {
        copy_panel_runs<2>(start, channels, plane, kh, kw, row_step,
                           p.dilation_w, 2, dst);
      } else {
        copy_panel_runs<0>(start, channels, plane, kh, kw, row_step,
                           p.dilation_w, p.stride_w, dst);
      }
      continue;
    }
    // Each position's taps bounds-checked, one panel column at a time.
    for (std::int64_t j = 0; j < kNr; ++j) {
      float* col = dst + j;
      if (j >= count) {
        for (std::int64_t t = 0; t < taps; ++t) {
          col[t * kNr] = 0.0F;
        }
        continue;
      }
      const std::int64_t iy = (first + j) / out_w * p.stride_h - p.pad_h;
      const std::int64_t ix = (first + j) % out_w * p.stride_w - p.pad_w;
      for (std::int64_t ic = 0; ic < channels; ++ic) {
        for (std::int64_t ky = 0; ky < kh; ++ky) {
          const std::int64_t y = iy + ky * p.dilation_h;
          const bool row_inside = y >= 0 && y < in_h;
          for (std::int64_t kx = 0; kx < kw; ++kx) {
            const std::int64_t x = ix + kx * p.dilation_w;
            *col = row_inside && x >= 0 && x < in_w
                       ? image[ic * plane + y * in_w + x]
                       : 0.0F;
            col += kNr;
          }
        }
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
// output element sees exactly the reference accumulation sequence: a
// double accumulator seeded with the bias, products formed exactly in
// double — so which operand is A and which is B cannot change a bit.
// ---------------------------------------------------------------------------

/// Double-accumulator tile: out(r, j) = seed + sum_k a(r, k) * b(k, j),
/// seeded per row from row_bias[r] (+0.0 when row_bias is null).
template <int MR>
void micro_f64(const float* a, std::int64_t lda, const float* bp,
               std::int64_t kk, const float* row_bias, float* out,
               std::int64_t ldo, std::int64_t ncols) {
  double acc[MR][kNr];
  for (int r = 0; r < MR; ++r) {
    for (std::int64_t j = 0; j < kNr; ++j) {
      acc[r][j] = row_bias != nullptr ? static_cast<double>(row_bias[r]) : 0.0;
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
      out[r * ldo + j] = static_cast<float>(acc[r][j]);
    }
  }
}

/// All kNr-wide panels of one A block against packed B, f64 accumulation:
/// the scalar twin of avx2::block_gemm. a: [rows x kk] row-major, bias:
/// one value per row (may be null), out[r*ldo + j].
void block_gemm_f64(const float* a, std::int64_t lda, std::int64_t rows,
                    const float* b_panels, std::int64_t kk, std::int64_t n,
                    const float* bias, float* out, std::int64_t ldo) {
  const std::int64_t panels = (n + kNr - 1) / kNr;
  for (std::int64_t p = 0; p < panels; ++p) {
    const float* bp = b_panels + p * kk * kNr;
    const std::int64_t j0 = p * kNr;
    const std::int64_t ncols = std::min(kNr, n - j0);
    std::int64_t r = 0;
    for (; r + 2 <= rows; r += 2) {
      micro_f64<2>(a + r * lda, lda, bp, kk,
                   bias != nullptr ? bias + r : nullptr, out + r * ldo + j0,
                   ldo, ncols);
    }
    for (; r < rows; ++r) {
      micro_f64<1>(a + r * lda, lda, bp, kk,
                   bias != nullptr ? bias + r : nullptr, out + r * ldo + j0,
                   ldo, ncols);
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

using LinearPanel = void (*)(const float*, std::int64_t, std::int64_t,
                             const float* const*, const float*, float*,
                             std::int64_t, std::int64_t);

/// out[n, j] = bias[j] + in[n, :] . w[j, :] for n < batch, j < out_f
/// (a null bias seeds +0.0): eight weight rows per output panel, read in
/// place; a tail panel repeats its last row in the missing lanes and
/// drops their results.
void linear_rows(const float* in, std::int64_t batch, std::int64_t in_f,
                 const float* w, std::int64_t out_f, const float* bias,
                 LinearPanel panel, float* out) {
  for (std::int64_t j0 = 0; j0 < out_f; j0 += kNr) {
    const std::int64_t ncols = std::min(kNr, out_f - j0);
    const float* w_rows[kNr];
    float seed[kNr] = {};
    for (std::int64_t j = 0; j < kNr; ++j) {
      w_rows[j] = w + std::min(j0 + j, out_f - 1) * in_f;
      if (bias != nullptr && j < ncols) {
        seed[j] = bias[j0 + j];
      }
    }
    panel(in, batch, in_f, w_rows, seed, out + j0, out_f, ncols);
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

/// The output columns [lo, hi) whose input column ox * stride + shift
/// lies in [0, in_w).
std::pair<std::int64_t, std::int64_t> tap_columns(std::int64_t out_w,
                                                  std::int64_t in_w,
                                                  std::int64_t stride,
                                                  std::int64_t shift) {
  const std::int64_t lo =
      std::min(out_w, shift >= 0 ? 0 : (stride - 1 - shift) / stride);
  const std::int64_t hi =
      shift >= in_w ? 0 : std::min(out_w, (in_w - 1 - shift) / stride + 1);
  return {lo, std::max(lo, hi)};
}

/// The scalar route of every channelwise kind, with the AVX2 blocked
/// kernels' operands: `planes` consecutive (image, channel) planes, plane
/// q using channel q % channels' kh x kw weights and bias (null: +0.0).
/// Each output row is a double accumulator row seeded with the bias;
/// every in-bounds kernel row then adds its taps in kx order, each over
/// the output columns whose input column is in bounds. So every output
/// adds the bias, then its in-bounds taps in (ky, kx) order: exactly the
/// reference conv2d's sequence for groups == C.
void channelwise_scalar(const float* in, std::int64_t planes,
                        std::int64_t channels, std::int64_t in_h,
                        std::int64_t in_w, const float* w, std::int64_t kh,
                        std::int64_t kw, const Conv2dParams& p,
                        const float* bias, float* out, std::int64_t out_h,
                        std::int64_t out_w) {
  // The output columns each tap column reaches in bounds, row after row.
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  for (std::int64_t kx = 0; kx < kw; ++kx) {
    spans.push_back(tap_columns(out_w, in_w, p.stride_w,
                                kx * p.dilation_w - p.pad_w));
  }
  std::vector<double> acc(static_cast<std::size_t>(out_w));
  for (std::int64_t q = 0; q < planes; ++q) {
    const std::int64_t c = q % channels;
    const float* plane = in + q * in_h * in_w;
    const float* wc = w + c * kh * kw;
    const double bias_value =
        bias != nullptr ? static_cast<double>(bias[c]) : 0.0;
    for (std::int64_t oy = 0; oy < out_h; ++oy) {
      std::fill(acc.begin(), acc.end(), bias_value);
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const std::int64_t iy = oy * p.stride_h - p.pad_h + ky * p.dilation_h;
        if (iy < 0 || iy >= in_h) {
          continue;
        }
        const float* row = plane + iy * in_w;
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          const std::int64_t shift = kx * p.dilation_w - p.pad_w;
          const double wk = static_cast<double>(wc[ky * kw + kx]);
          const auto [lo, hi] = spans[static_cast<std::size_t>(kx)];
          for (std::int64_t ox = lo; ox < hi; ++ox) {
            acc[static_cast<std::size_t>(ox)] +=
                static_cast<double>(row[ox * p.stride_w + shift]) * wk;
          }
        }
      }
      float* out_row = out + (q * out_h + oy) * out_w;
      for (std::int64_t ox = 0; ox < out_w; ++ox) {
        out_row[ox] = static_cast<float>(acc[static_cast<std::size_t>(ox)]);
      }
    }
  }
}

/// Under AVX2, FuSe lines at least this wide at unit x stride run one
/// plane at a time, where the per-plane interior beats channel blocking;
/// every other channelwise geometry runs channel-blocked.
constexpr std::int64_t kPerPlaneMinWidth = 56;

/// The channelwise kinds: which counter a conv bumps, and which per-plane
/// AVX2 kernel a wide FuSe line takes.
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
                               const Tensor* bias, const Conv2dParams& p,
                               KernelIsa isa) {
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

  // Every geometry vectorizes under AVX2 (the dispatch table in
  // docs/kernels.md has the measurements behind each route).
  note_isa(isa);
  const auto [x_lo, x_hi] =
      interior_x(out_w, in_w, kw, p.stride_w, p.pad_w, p.dilation_w);
  const kernels::ConvGeom geom = to_geom(p);

  Tensor output(Shape{batch, channels, out_h, out_w});
  const float* in_ptr = input.data();
  const float* w_ptr = weight.data();
  const float* bias_ptr = bias != nullptr ? bias->data() : nullptr;
  float* out_ptr = output.data();
  const std::int64_t in_plane = in_h * in_w;
  const std::int64_t out_plane = out_h * out_w;
  if (isa == KernelIsa::kScalar) {
    channelwise_scalar(in_ptr, batch * channels, channels, in_h, in_w, w_ptr,
                       kh, kw, p, bias_ptr, out_ptr, out_h, out_w);
    return output;
  }
  const bool unit_x = p.stride_w == 1 && p.dilation_w == 1;
  if (!unit_x || kind == ChannelwiseKind::kDepthwise ||
      out_w < kPerPlaneMinWidth) {
    // Eight planes per vector: float lanes at unit x stride and dilation,
    // exact double lanes otherwise.
    const auto blocked = unit_x ? kernels::avx2::channelwise_blocked_f32
                                : kernels::avx2::channelwise_blocked_f64;
    blocked(in_ptr, batch * channels, channels, in_h, in_w, w_ptr, kh, kw,
            geom, bias_ptr, out_ptr, out_h, out_w, x_lo, x_hi);
    return output;
  }

  // A wide FuSe line: one output plane per (image, channel).
  for (std::int64_t nc = 0; nc < batch * channels; ++nc) {
    const std::int64_t c = nc % channels;
    const float* plane = in_ptr + nc * in_plane;
    const float* w = w_ptr + c * kh * kw;
    float* out = out_ptr + nc * out_plane;
    const float bias_f = bias_ptr != nullptr ? bias_ptr[c] : 0.0F;
    if (kind == ChannelwiseKind::kFuseRow) {
      kernels::avx2::fuse_row_channel(plane, in_h, in_w, w, kw, geom, bias_f,
                                      out, out_h, out_w, x_lo, x_hi);
    } else {
      kernels::avx2::fuse_col_channel(plane, in_h, in_w, w, kh, geom, bias_f,
                                      out, out_h, out_w, x_lo, x_hi);
    }
  }
  return output;
}

// ---------------------------------------------------------------------------
// Dense, grouped and pointwise conv: one GEMM in the W x X orientation
// ---------------------------------------------------------------------------

/// True for the convolutions whose im2col columns are the input planes
/// themselves: 1x1, stride 1, no padding, one group (dilation is moot for
/// one tap).
bool is_pointwise(const Tensor& weight, const Conv2dParams& p) {
  return weight.shape().dim(2) == 1 && weight.shape().dim(3) == 1 &&
         p.stride_h == 1 && p.stride_w == 1 && p.pad_h == 0 && p.pad_w == 0 &&
         p.groups == 1;
}

/// out[n, oc, p] = bias[oc] + W[oc, :] . col[:, p] for every dense,
/// grouped or pointwise conv: each group's filter bank streams in place
/// as the GEMM's A, the image's im2col columns are packed as B panels one
/// position block of about 64 KB at a time (a pointwise conv's columns
/// are its input planes, packed by pack_b_panels), and every output row
/// lands as a contiguous run of its NCHW plane. Each output sums bias,
/// then taps in (ic, ky, kx) order.
Tensor conv2d_gemm_fast(const Tensor& input, const Tensor& weight,
                        const Tensor* bias, const Conv2dParams& p,
                        KernelIsa isa) {
  const bool pointwise = is_pointwise(weight, p);
  if (pointwise) {
    FUSE_KERNEL_COUNTER("kernels.fast.pointwise");
  } else {
    FUSE_KERNEL_COUNTER("kernels.fast.conv2d");
  }
  // im2col linearizes every geometry, so the GEMM path vectorizes
  // unconditionally.
  note_isa(isa);
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
  const std::int64_t block_step = 2 * kNr;
  const std::int64_t block = std::max<std::int64_t>(
      block_step, kConvBlockBytes /
                      (taps * static_cast<std::int64_t>(sizeof(float))) /
                      block_step * block_step);

  Tensor output(Shape{batch, out_c, out_h, out_w});
  const float* bias_ptr = bias != nullptr ? bias->data() : nullptr;
  const auto gemm =
      isa == KernelIsa::kAvx2 ? kernels::avx2::block_gemm : block_gemm_f64;
  std::vector<float> b_panels;
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t g = 0; g < p.groups; ++g) {
      const float* image =
          input.data() + (n * in_c + g * group_in) * in_h * in_w;
      float* out_rows = output.data() + (n * out_c + g * group_out) * positions;
      // The group's filter rows are contiguous [taps] slices in
      // (ic, ky, kx) order — exactly the panels' k order.
      const float* filters = weight.data() + g * group_out * taps;
      const float* group_bias =
          bias_ptr != nullptr ? bias_ptr + g * group_out : nullptr;
      for (std::int64_t p0 = 0; p0 < positions; p0 += block) {
        const std::int64_t cols = std::min(block, positions - p0);
        if (pointwise) {
          pack_b_panels(image + p0, in_c, cols, positions, b_panels);
        } else {
          pack_im2col_panels(image, group_in, in_h, in_w, kh, kw, p, out_w,
                             p0, cols, b_panels);
        }
        gemm(filters, taps, group_out, b_panels.data(), taps, cols,
             group_bias, out_rows + p0, /*ldo=*/positions);
      }
    }
  }
  return output;
}

}  // namespace

// ---------------------------------------------------------------------------
// Kernel choice
// ---------------------------------------------------------------------------

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

bool kernel_isa_available(KernelIsa isa) {
  if (isa == KernelIsa::kScalar) {
    return true;
  }
  const util::CpuFeatures& cpu = util::cpu_features();
  return kernels::avx2::compiled() && cpu.avx2 && cpu.fma;
}

KernelIsa best_isa() {
  static const bool avx2 = kernel_isa_available(KernelIsa::kAvx2);
  return avx2 ? KernelIsa::kAvx2 : KernelIsa::kScalar;
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
    *out = best_isa();
    return true;
  }
  return false;
}

const char* kernel_isa_name(KernelIsa isa) {
  return isa == KernelIsa::kAvx2 ? "avx2" : "scalar";
}

namespace kernels {

// ---------------------------------------------------------------------------
// The simulator's f64 kernels (exact products, one rounding per output)
// ---------------------------------------------------------------------------

void gemm_f64(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n, KernelIsa isa) {
  check_isa(isa);
  if (n == 1) {
    // A matrix-vector product, which is a batch-1 linear layer with A's
    // rows as its weight: a padded 8-wide B panel would be 7/8 zeros,
    // while linear's panels read eight rows of A in place as eight
    // independent chains. Each still sums from +0.0 in ascending k.
    linear_rows(b, /*batch=*/1, k, a, m, /*bias=*/nullptr, linear_panel_f64,
                c);
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
  if (isa == KernelIsa::kAvx2) {
    kernels::avx2::block_gemm_f64(a, k, m, b_panels.data(), k, n, c, n);
    return;
  }
  block_gemm_f64(a, k, m, b_panels.data(), k, n, /*bias=*/nullptr, c,
                 /*ldo=*/n);
}

void channelwise_f64(const float* input, const float* weight, float* out,
                     std::int64_t channels, std::int64_t in_h,
                     std::int64_t in_w, std::int64_t kh, std::int64_t kw,
                     const Conv2dParams& p, KernelIsa isa) {
  check_isa(isa);
  const std::int64_t out_h =
      conv_out_dim(in_h, kh, p.stride_h, p.pad_h, p.dilation_h);
  const std::int64_t out_w =
      conv_out_dim(in_w, kw, p.stride_w, p.pad_w, p.dilation_w);
  if (isa == KernelIsa::kAvx2) {
    const auto [x_lo, x_hi] =
        interior_x(out_w, in_w, kw, p.stride_w, p.pad_w, p.dilation_w);
    kernels::avx2::channelwise_blocked_f64(
        input, channels, channels, in_h, in_w, weight, kh, kw, to_geom(p),
        /*bias=*/nullptr, out, out_h, out_w, x_lo, x_hi);
    return;
  }
  channelwise_scalar(input, channels, channels, in_h, in_w, weight, kh, kw, p,
                     /*bias=*/nullptr, out, out_h, out_w);
}

// ---------------------------------------------------------------------------
// conv2d / linear (double accumulation — the reference numerics)
// ---------------------------------------------------------------------------

Tensor conv2d_fast(const Tensor& input, const Tensor& weight,
                   const Tensor* bias, const Conv2dParams& params,
                   KernelIsa isa) {
  const std::int64_t in_c = input.shape().dim(1);
  const std::int64_t out_c = weight.shape().dim(0);
  if (params.groups == in_c && weight.shape().dim(1) == 1 &&
      out_c == in_c) {
    return conv2d_channelwise_fast(input, weight, bias, params, isa);
  }
  return conv2d_gemm_fast(input, weight, bias, params, isa);
}

Tensor linear_fast(const Tensor& input, const Tensor& weight,
                   const Tensor* bias, KernelIsa isa) {
  FUSE_KERNEL_COUNTER("kernels.fast.linear");
  note_isa(isa);
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t in_f = input.shape().dim(1);
  const std::int64_t out_f = weight.shape().dim(0);
  Tensor out(Shape{batch, out_f});
  linear_rows(input.data(), batch, in_f, weight.data(), out_f,
              bias != nullptr ? bias->data() : nullptr,
              isa == KernelIsa::kAvx2 ? kernels::avx2::linear_panel
                                      : linear_panel_f64,
              out.data());
  return out;
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
// Layout helpers
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

}  // namespace kernels

}  // namespace fuse::nn
