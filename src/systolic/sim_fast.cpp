// The fast simulation engine: closed-form wavefront intervals.
//
// The reference engine steps every PE every cycle, bubbles included. But
// the skewed wavefront is closed-form: PE (i, j) holds live operands
// exactly while t - i - j is inside the reduction window, and outside it
// both operand registers hold the pipeline zero. So each PE's accumulator
// is a straight dot product over its depth-length operand stream, and the
// whole per-cycle sweep collapses to O(R * C * depth) per fold.
//
// Bit-exactness contract (asserted by tests/test_systolic_sim.cpp and the
// check.sh equality stage): every output element accumulates the IDENTICAL
// floating-point operation sequence as the reference engine —
//   * OS: acc(i,j) = sum over ascending k of (double)a * (double)b. The
//     reference additionally adds the bubble product 0.0F * 0.0F once per
//     bubble cycle, but every such add is a bitwise no-op: an IEEE sum is
//     -0.0 only when BOTH operands are -0.0, and the accumulator starts
//     at +0.0, so it can never become -0.0 — and x + 0.0 == x exactly for
//     every other x. Dropping the bubble adds changes nothing. Each output
//     tile sums the full depth, so the tiling does not touch the numerics
//     and one nn::kernels::gemm_f64 over the whole operand (the same
//     sequence, over 8-wide packed panels) computes every fold at once.
//     Its AVX2 kernel adds each term with one FMA; the float x float
//     product is exact in double, so the FMA rounds exactly as the
//     reference's multiply-then-add.
//   * WS/IS: the partial-sum cascade starts from a literal 0.0 and every
//     link is live for a valid exit row/column, so the per-fold
//     contribution is the clean ascending-index sum — no bubble terms.
//     Contributions from successive reduction folds land on the off-array
//     accumulator in ascending-fold order: the folds run in enumeration
//     order, exactly as the reference walks them.
//   * conv1d_broadcast: acc = sum over ascending tap of
//     (double)weight * (double)window from +0.0, independent of the fold
//     that holds the output. That is the unpadded channelwise sum of a
//     one-row FuSe plane, so nn::kernels::channelwise_f64 computes every
//     line at once, each line a 1 x W plane under its 1 x K kernel (exact
//     double lanes under AVX2, for the same reason).
//   * matmul_wx: the W x X orientation of the OS call, one
//     nn::kernels::gemm_f64(w, x): output (j, i) is the same
//     ascending-k sum of the same exact products as output (i, j) of
//     matmul(x^T, w^T).
//   * channelwise: every output of a depthwise layer's single-column OS
//     passes, or of a FuSe layer's broadcast lines, is one unsplit
//     ascending-tap sum from +0.0 over its zero-padded window.
//     nn::kernels::channelwise_f64 adds the same products in the same
//     order, less the padding taps: each of those adds 0 x w, which for
//     finite w is +-0.0, a bitwise no-op on an accumulator that starts
//     at +0.0 (the bubble argument above). A strided line's kept outputs
//     are the strided conv's outputs. The caller routes a layer here only
//     when every weight is finite.
// Counters (cycles / folds / mac_ops) and the pe_busy grid are closed-form
// per fold, accumulated in enumeration order. The kernel ISA (the
// constructor's) picks only how fast the kernels run: every output bit
// is the same under each ISA.
//
// The engine is serial: the executor's per-layer calls are too small for
// a fold pool to amortize its hand-off (docs/simulator.md has the
// measurements).
#include <algorithm>
#include <vector>

#include "nn/kernels.hpp"
#include "systolic/sim.hpp"
#include "systolic/sim_detail.hpp"

namespace fuse::systolic {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// Counters and busy grid of one output-stationary pass: an [m, n] output
/// over reduction depth `depth` (output left empty).
SimResult os_pass(std::int64_t m, std::int64_t depth, std::int64_t n,
                  const ArrayConfig& cfg) {
  SimResult result;
  detail::BusyGrid busy(m, n, cfg);
  for_each_fold_tile(m, n, cfg, [&](const FoldTile& tile) {
    result.folds += 1;
    const std::int64_t compute_cycles =
        (tile.rows - 1) + (tile.cols - 1) + depth;
    result.cycles += static_cast<std::uint64_t>(compute_cycles + tile.rows);
    result.mac_ops += static_cast<std::uint64_t>(tile.rows * tile.cols) *
                      static_cast<std::uint64_t>(depth);
    busy.add_tile(tile.rows, tile.cols, static_cast<std::uint64_t>(depth));
  });
  result.pe_busy = busy.to_tensor();
  return result;
}

/// Counters and busy grid of one broadcast pass: `lines` lines of `out_w`
/// outputs and `taps` taps (output left empty).
SimResult broadcast_pass(std::int64_t lines, std::int64_t out_w,
                         std::int64_t taps, const ArrayConfig& cfg) {
  SimResult result;
  detail::BusyGrid busy(lines, out_w, cfg);
  for_each_fold_tile(lines, out_w, cfg, [&](const FoldTile& tile) {
    result.folds += 1;
    result.cycles += static_cast<std::uint64_t>((tile.cols - 1) + taps +
                                                tile.rows);
    result.mac_ops += static_cast<std::uint64_t>(tile.rows * tile.cols) *
                      static_cast<std::uint64_t>(taps);
    busy.add_tile(tile.rows, tile.cols, static_cast<std::uint64_t>(taps));
  });
  result.pe_busy = busy.to_tensor();
  return result;
}

}  // namespace

SimResult SystolicArraySim::matmul_os_fast(const Tensor& a, const Tensor& b) {
  detail::check_matmul_operands(a, b, "sim matmul");
  const std::int64_t m = a.shape().dim(0);
  const std::int64_t depth = a.shape().dim(1);
  const std::int64_t n = b.shape().dim(1);

  SimResult result = os_pass(m, depth, n, cfg_);
  result.output = Tensor(Shape{m, n});
  nn::kernels::gemm_f64(a.data(), b.data(), result.output.data(), m, depth,
                        n, isa_);
  return result;
}

SimResult SystolicArraySim::matmul_wx_fast(const Tensor& w, const Tensor& x,
                                           std::int64_t n, std::int64_t t,
                                           std::int64_t m) {
  SimResult result = os_pass(m, t, n, cfg_);
  result.output = Tensor(Shape{n, m});
  nn::kernels::gemm_f64(w.data(), x.data(), result.output.data(), n, t, m,
                        isa_);
  return result;
}

SimResult SystolicArraySim::channelwise_fast(const PrimitiveOp& op,
                                             const Tensor& input,
                                             const Tensor& weight,
                                             const nn::LayerDesc& layer) {
  detail::PassSum total(cfg_);
  if (op.broadcast) {
    total.add(broadcast_pass(op.lines, op.line_out, op.taps, cfg_));
  } else if (op.kind == PrimitiveKind::kFuse1DLine) {
    total.add(os_pass(op.line_out, op.taps, 1, cfg_),
              static_cast<std::uint64_t>(op.repeats));
  } else {
    total.add(os_pass(op.m, op.k, op.n, cfg_),
              static_cast<std::uint64_t>(op.repeats));
  }
  Tensor output(Shape{1, layer.out_c, layer.out_h, layer.out_w});
  nn::Conv2dParams p;
  p.stride_h = layer.stride_h;
  p.stride_w = layer.stride_w;
  p.pad_h = layer.pad_h;
  p.pad_w = layer.pad_w;
  nn::kernels::channelwise_f64(input.data(), weight.data(), output.data(),
                               layer.in_c, layer.in_h, layer.in_w,
                               layer.kernel_h, layer.kernel_w, p, isa_);
  return total.finish(std::move(output));
}

SimResult SystolicArraySim::matmul_ws_fast(const Tensor& a, const Tensor& b) {
  detail::check_matmul_operands(a, b, "sim matmul_ws");
  const std::int64_t m = a.shape().dim(0);
  const std::int64_t depth = a.shape().dim(1);
  const std::int64_t n = b.shape().dim(1);

  SimResult result;
  result.output = Tensor(Shape{m, n});
  detail::BusyGrid busy(depth, n, cfg_);

  // Off-array accumulators, shared across reduction folds. Weight tiles
  // put the reduction depth over array rows and N over columns; walking
  // them in enumeration order (t0 outer) adds each element's reduction
  // folds in ascending order, as the reference does.
  std::vector<double> acc(static_cast<std::size_t>(m * n), 0.0);
  std::vector<double> sum;
  const float* a_data = a.data();
  const float* b_data = b.data();
  for_each_fold_tile(depth, n, cfg_, [&](const FoldTile& tile) {
    const std::int64_t t0 = tile.a0;
    const std::int64_t used_t = tile.rows;
    const std::int64_t col0 = tile.b0;
    const std::int64_t used_n = tile.cols;
    result.folds += 1;
    result.cycles +=
        static_cast<std::uint64_t>(used_t + (m + used_t + used_n - 2));
    result.mac_ops += static_cast<std::uint64_t>(m) *
                      static_cast<std::uint64_t>(used_t * used_n);
    busy.add_tile(used_t, used_n, static_cast<std::uint64_t>(m));

    sum.resize(static_cast<std::size_t>(used_n));
    for (std::int64_t r = 0; r < m; ++r) {
      std::fill(sum.begin(), sum.end(), 0.0);
      // The activation stream of row r: a[r][t0 + i], contiguous; the
      // preloaded weight row i is b[t0 + i][col0 + j], contiguous too.
      const float* a_row = a_data + r * depth + t0;
      for (std::int64_t i = 0; i < used_t; ++i) {
        const double a_val = static_cast<double>(a_row[i]);
        const float* w_row = b_data + (t0 + i) * n + col0;
        for (std::int64_t j = 0; j < used_n; ++j) {
          sum[static_cast<std::size_t>(j)] +=
              static_cast<double>(w_row[j]) * a_val;
        }
      }
      double* acc_row = acc.data() + r * n + col0;
      for (std::int64_t j = 0; j < used_n; ++j) {
        acc_row[j] += sum[static_cast<std::size_t>(j)];
      }
    }
  });
  float* out = result.output.data();
  for (std::int64_t i = 0; i < m * n; ++i) {
    out[i] = static_cast<float>(acc[static_cast<std::size_t>(i)]);
  }
  result.pe_busy = busy.to_tensor();
  return result;
}

SimResult SystolicArraySim::matmul_is_fast(const Tensor& a, const Tensor& b) {
  detail::check_matmul_operands(a, b, "sim matmul_is");
  const std::int64_t m = a.shape().dim(0);
  const std::int64_t depth = a.shape().dim(1);
  const std::int64_t n = b.shape().dim(1);

  SimResult result;
  result.output = Tensor(Shape{m, n});
  detail::BusyGrid busy(m, depth, cfg_);

  // Activation tiles put M over array rows and the reduction depth over
  // columns; enumeration order (row0 outer, t0 inner) adds each element's
  // reduction folds in ascending order (same argument as WS).
  std::vector<double> acc(static_cast<std::size_t>(m * n), 0.0);
  std::vector<double> sum(static_cast<std::size_t>(n));
  const float* a_data = a.data();
  const float* b_data = b.data();
  for_each_fold_tile(m, depth, cfg_, [&](const FoldTile& tile) {
    const std::int64_t row0 = tile.a0;
    const std::int64_t used_m = tile.rows;
    const std::int64_t t0 = tile.b0;
    const std::int64_t used_t = tile.cols;
    result.folds += 1;
    result.cycles +=
        static_cast<std::uint64_t>(used_m + (n + used_m + used_t - 2));
    result.mac_ops += static_cast<std::uint64_t>(n) *
                      static_cast<std::uint64_t>(used_m * used_t);
    busy.add_tile(used_m, used_t, static_cast<std::uint64_t>(n));

    for (std::int64_t i = 0; i < used_m; ++i) {
      std::fill(sum.begin(), sum.end(), 0.0);
      // The pinned activations of array row i: a[row0+i][t0 + j].
      const float* a_row = a_data + (row0 + i) * depth + t0;
      for (std::int64_t j = 0; j < used_t; ++j) {
        const double pin = static_cast<double>(a_row[j]);
        const float* b_row = b_data + (t0 + j) * n;
        for (std::int64_t c = 0; c < n; ++c) {
          sum[static_cast<std::size_t>(c)] +=
              pin * static_cast<double>(b_row[c]);
        }
      }
      double* acc_row = acc.data() + (row0 + i) * n;
      for (std::int64_t c = 0; c < n; ++c) {
        acc_row[c] += sum[static_cast<std::size_t>(c)];
      }
    }
  });
  float* out = result.output.data();
  for (std::int64_t i = 0; i < m * n; ++i) {
    out[i] = static_cast<float>(acc[static_cast<std::size_t>(i)]);
  }
  result.pe_busy = busy.to_tensor();
  return result;
}

SimResult SystolicArraySim::conv1d_broadcast_fast(const Tensor& lines,
                                                  const Tensor& kernels) {
  detail::check_conv1d_operands(lines, kernels, cfg_);
  const std::int64_t num_lines = lines.shape().dim(0);
  const std::int64_t width = lines.shape().dim(1);
  const std::int64_t taps = kernels.shape().dim(1);
  const std::int64_t out_w = width - taps + 1;

  SimResult result = broadcast_pass(num_lines, out_w, taps, cfg_);
  result.output = Tensor(Shape{num_lines, out_w});
  nn::kernels::channelwise_f64(lines.data(), kernels.data(),
                               result.output.data(), num_lines, /*in_h=*/1,
                               width, /*kh=*/1, taps, nn::Conv2dParams{},
                               isa_);
  return result;
}

}  // namespace fuse::systolic
