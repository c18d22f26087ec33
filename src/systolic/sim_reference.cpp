// The reference simulation engine: the original per-cycle PE sweep.
//
// Every PE of every fold is stepped every cycle — double-buffered operand
// registers, skew bubbles and all. This is deliberately the most literal
// rendering of the hardware and serves as the oracle the fast engine
// (sim_fast.cpp) is proven bit-exact against; keep it simple, not fast.
// The only concessions to speed are the unchecked tensor accessors in the
// edge feeders (the checked at() overloads are out-of-line calls, which
// dominates a per-PE-per-cycle loop) and exact integer busy counting
// (detail::BusyGrid).
//
// A channelwise layer is laid out here as the paper's passes (one
// single-column im2col matmul per depthwise channel, FuSe lines for the
// broadcast bus or one single-column matmul per line without it) and
// stepped pass by pass: the reference engine's route, and the fast
// engine's wherever its kernel route does not hold.
#include <algorithm>
#include <vector>

#include "systolic/sim.hpp"
#include "systolic/sim_detail.hpp"
#include "util/check.hpp"

namespace fuse::systolic {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// Writes the im2col rows of one input plane into `patches`
/// ([out_h * out_w, kh * kw], taps ordered kernel row then kernel
/// column, padding taps 0): every element, so one buffer serves every
/// channel.
void gather_patches(const nn::LayerDesc& layer, const float* plane,
                    float* patches) {
  float* dst = patches;
  for (std::int64_t oy = 0; oy < layer.out_h; ++oy) {
    const std::int64_t iy0 = oy * layer.stride_h - layer.pad_h;
    for (std::int64_t ox = 0; ox < layer.out_w; ++ox) {
      const std::int64_t ix0 = ox * layer.stride_w - layer.pad_w;
      for (std::int64_t ky = 0; ky < layer.kernel_h; ++ky) {
        const std::int64_t iy = iy0 + ky;
        if (iy < 0 || iy >= layer.in_h) {
          dst = std::fill_n(dst, layer.kernel_w, 0.0F);
          continue;
        }
        const float* row = plane + iy * layer.in_w;
        for (std::int64_t kx = 0; kx < layer.kernel_w; ++kx) {
          const std::int64_t ix = ix0 + kx;
          *dst++ = (ix < 0 || ix >= layer.in_w) ? 0.0F : row[ix];
        }
      }
    }
  }
}

}  // namespace

SimResult SystolicArraySim::channelwise_materialized(
    const PrimitiveOp& op, const Tensor& input, const Tensor& weight,
    const nn::LayerDesc& layer) {
  detail::PassSum total(cfg_);
  Tensor output(Shape{1, layer.out_c, layer.out_h, layer.out_w});
  const std::int64_t plane = layer.in_h * layer.in_w;
  const std::int64_t out_plane = layer.out_h * layer.out_w;
  if (layer.kind == nn::OpKind::kDepthwiseConv) {
    // One single-column matmul per channel — the §III-B mapping; channels
    // serialize on the array. The operand buffers are reused across
    // channels, and a channel's [positions, 1] product is its plane.
    const std::int64_t taps = op.k;
    Tensor patches(Shape{out_plane, taps});
    Tensor filter(Shape{taps, 1});
    for (std::int64_t c = 0; c < layer.in_c; ++c) {
      gather_patches(layer, input.data() + c * plane, patches.data());
      std::copy_n(weight.data() + c * taps, taps, filter.data());
      const SimResult pass = matmul(patches, filter);
      total.add(pass);
      std::copy_n(pass.output.data(), out_plane,
                  output.data() + c * out_plane);
    }
    return total.finish(std::move(output));
  }

  // FuSe: one padded line per (channel, line) with the channel's 1-D
  // kernel. Lines run along the convolved axis; the other axis indexes
  // them, and only the out_h rows (row branch) or out_w columns (column
  // branch) that produce an output are mapped: line l of a channel is
  // image row or column l * line_stride - line_pad, all zeros where that
  // falls in the padding. Along the convolved axis a strided line
  // computes its dense output and keeps every stride-th value, as the
  // shift-register dataflow must (systolic::fuse_dense_width).
  const bool row_branch = layer.kind == nn::OpKind::kFuseRowConv;
  const std::int64_t taps = op.taps;
  const std::int64_t pad = row_branch ? layer.pad_w : layer.pad_h;
  const std::int64_t stride = row_branch ? layer.stride_w : layer.stride_h;
  const std::int64_t line_stride =
      row_branch ? layer.stride_h : layer.stride_w;
  const std::int64_t line_pad = row_branch ? layer.pad_h : layer.pad_w;
  const std::int64_t input_lines = row_branch ? layer.in_h : layer.in_w;
  const std::int64_t lines_per_channel =
      row_branch ? layer.out_h : layer.out_w;
  const std::int64_t line_length = row_branch ? layer.in_w : layer.in_h;
  const std::int64_t padded = line_length + 2 * pad;
  const std::int64_t kept = row_branch ? layer.out_w : layer.out_h;
  // A line's values sit `along` apart in its input plane and `out_along`
  // apart in its output plane; consecutive lines start `line_step` and
  // `out_line_step` apart.
  const std::int64_t along = row_branch ? 1 : layer.in_w;
  const std::int64_t line_step = row_branch ? layer.in_w : 1;
  const std::int64_t out_along = row_branch ? 1 : layer.out_w;
  const std::int64_t out_line_step = row_branch ? layer.out_w : 1;
  Tensor lines(Shape{op.lines, padded});
  Tensor kernels(Shape{op.lines, taps});
  for (std::int64_t line = 0; line < op.lines; ++line) {
    const std::int64_t c = line / lines_per_channel;
    // [C, 1, 1, K] and [C, 1, K, 1] both hold channel c's taps at c * K.
    std::copy_n(weight.data() + c * taps, taps, kernels.data() + line * taps);
    const std::int64_t source =
        (line % lines_per_channel) * line_stride - line_pad;
    if (source < 0 || source >= input_lines) {
      continue;
    }
    const float* src = input.data() + c * plane + source * line_step;
    float* dst = lines.data() + line * padded + pad;
    for (std::int64_t x = 0; x < line_length; ++x) {
      dst[x] = src[x * along];
    }
  }
  // Writes a line's `kept` outputs, read `stride` apart from `values`.
  const auto store = [&](std::int64_t line, const float* values) {
    float* dst = output.data() + (line / lines_per_channel) * out_plane +
                 (line % lines_per_channel) * out_line_step;
    for (std::int64_t o = 0; o < kept; ++o) {
      dst[o * out_along] = values[o * stride];
    }
  };
  if (op.broadcast) {
    const SimResult pass = conv1d_broadcast(lines, kernels);
    total.add(pass);
    for (std::int64_t line = 0; line < op.lines; ++line) {
      store(line, pass.output.data() + line * op.line_out);
    }
    return total.finish(std::move(output));
  }
  // No broadcast bus: each line degrades to a serialized single-column
  // matmul (the ablation baseline the plan's no-broadcast op models).
  Tensor patches(Shape{op.line_out, taps});
  Tensor filter(Shape{taps, 1});
  for (std::int64_t line = 0; line < op.lines; ++line) {
    const float* src = lines.data() + line * padded;
    for (std::int64_t o = 0; o < op.line_out; ++o) {
      std::copy_n(src + o, taps, patches.data() + o * taps);
    }
    std::copy_n(kernels.data() + line * taps, taps, filter.data());
    const SimResult pass = matmul(patches, filter);
    total.add(pass);
    store(line, pass.output.data());
  }
  return total.finish(std::move(output));
}

SimResult SystolicArraySim::matmul_os_reference(const Tensor& a,
                                                const Tensor& b) {
  detail::check_matmul_operands(a, b, "sim matmul");
  const std::int64_t m = a.shape().dim(0);
  const std::int64_t depth = a.shape().dim(1);
  const std::int64_t n = b.shape().dim(1);

  SimResult result;
  result.output = Tensor(Shape{m, n});
  detail::BusyGrid busy(m, n, cfg_);

  for_each_fold_tile(m, n, cfg_, [&](const FoldTile& tile) {
    {
      const std::int64_t row0 = tile.a0;
      const std::int64_t used_rows = tile.rows;
      const std::int64_t col0 = tile.b0;
      const std::int64_t used_cols = tile.cols;
      result.folds += 1;

      // Per-PE state. reg_* hold the operand a PE exposes to its neighbor
      // next cycle; double-buffered so the update is simultaneous.
      const auto idx = [&](std::int64_t i, std::int64_t j) {
        return static_cast<std::size_t>(i * used_cols + j);
      };
      std::vector<double> acc(idx(used_rows - 1, used_cols - 1) + 1, 0.0);
      std::vector<float> a_reg(acc.size(), 0.0F);
      std::vector<float> b_reg(acc.size(), 0.0F);
      std::vector<float> a_next(acc.size(), 0.0F);
      std::vector<float> b_next(acc.size(), 0.0F);

      // Edge feeders: row i of the fold receives A[row0+i][t - i] at cycle
      // t; column j receives B[t - j][col0+j]. Outside the valid window the
      // feeder emits zero (the pipeline bubble of the skewed wavefront).
      const auto feed_a = [&](std::int64_t i, std::int64_t t) -> float {
        const std::int64_t k = t - i;
        return (k >= 0 && k < depth) ? a.at_unchecked(row0 + i, k) : 0.0F;
      };
      const auto feed_b = [&](std::int64_t j, std::int64_t t) -> float {
        const std::int64_t k = t - j;
        return (k >= 0 && k < depth) ? b.at_unchecked(k, col0 + j) : 0.0F;
      };

      const std::int64_t compute_cycles =
          (used_rows - 1) + (used_cols - 1) + depth;
      for (std::int64_t t = 0; t < compute_cycles; ++t) {
        for (std::int64_t i = 0; i < used_rows; ++i) {
          for (std::int64_t j = 0; j < used_cols; ++j) {
            const float a_in =
                (j == 0) ? feed_a(i, t) : a_reg[idx(i, j - 1)];
            const float b_in =
                (i == 0) ? feed_b(j, t) : b_reg[idx(i - 1, j)];
            acc[idx(i, j)] +=
                static_cast<double>(a_in) * static_cast<double>(b_in);
            // PE (i,j) holds live operands exactly while t - i - j is
            // inside the reduction window; everything else is the skew
            // bubble. This makes mac_ops == R*Cc*depth per fold.
            const std::int64_t k = t - i - j;
            if (k >= 0 && k < depth) {
              result.mac_ops += 1;
              busy.add(i, j, 1);
            }
            a_next[idx(i, j)] = a_in;
            b_next[idx(i, j)] = b_in;
          }
        }
        a_reg.swap(a_next);
        b_reg.swap(b_next);
      }

      // Drain: accumulators shift down their column one PE per cycle and
      // exit at the bottom edge — used_rows cycles.
      for (std::int64_t d = 0; d < used_rows; ++d) {
        const std::int64_t i = used_rows - 1 - d;  // row exiting this cycle
        for (std::int64_t j = 0; j < used_cols; ++j) {
          result.output.at_unchecked(row0 + i, col0 + j) =
              static_cast<float>(acc[idx(i, j)]);
        }
      }

      result.cycles += static_cast<std::uint64_t>(compute_cycles) +
                       static_cast<std::uint64_t>(used_rows);
    }
  });
  result.pe_busy = busy.to_tensor();
  return result;
}

SimResult SystolicArraySim::matmul_ws_reference(const Tensor& a,
                                                const Tensor& b) {
  detail::check_matmul_operands(a, b, "sim matmul_ws");
  const std::int64_t m = a.shape().dim(0);
  const std::int64_t depth = a.shape().dim(1);
  const std::int64_t n = b.shape().dim(1);

  SimResult result;
  result.output = Tensor(Shape{m, n});
  detail::BusyGrid busy(depth, n, cfg_);
  // Off-array accumulators: partial sums from successive reduction folds
  // of the same output tile are summed here (read-modify-write, free as in
  // the analytic model).
  std::vector<double> acc(static_cast<std::size_t>(m * n), 0.0);

  // Weight tiles: reduction depth over the array rows, N over the columns
  // (the same grid for_each_matmul_fold prices on WS).
  for_each_fold_tile(depth, n, cfg_, [&](const FoldTile& tile) {
    {
      const std::int64_t t0 = tile.a0;
      const std::int64_t used_t = tile.rows;
      const std::int64_t col0 = tile.b0;
      const std::int64_t used_n = tile.cols;
      result.folds += 1;

      const auto idx = [&](std::int64_t i, std::int64_t j) {
        return static_cast<std::size_t>(i * used_n + j);
      };
      // Preload the weight tile, one row per cycle.
      std::vector<float> w(idx(used_t - 1, used_n - 1) + 1, 0.0F);
      for (std::int64_t i = 0; i < used_t; ++i) {
        for (std::int64_t j = 0; j < used_n; ++j) {
          w[idx(i, j)] = b.at_unchecked(t0 + i, col0 + j);
        }
      }
      result.cycles += static_cast<std::uint64_t>(used_t);

      // Stream the M activation rows; partial sums cascade downward.
      std::vector<float> a_reg(w.size(), 0.0F);
      std::vector<float> a_next(w.size(), 0.0F);
      std::vector<double> ps_reg(w.size(), 0.0);
      std::vector<double> ps_next(w.size(), 0.0);
      const std::int64_t stream_cycles = m + used_t + used_n - 2;
      for (std::int64_t s = 0; s < stream_cycles; ++s) {
        for (std::int64_t i = 0; i < used_t; ++i) {
          for (std::int64_t j = 0; j < used_n; ++j) {
            const std::int64_t row_index = s - i - j;  // activation row at
                                                       // this PE this cycle
            float a_in = 0.0F;
            if (j == 0) {
              const std::int64_t feeder_row = s - i;
              a_in = (feeder_row >= 0 && feeder_row < m)
                         ? a.at_unchecked(feeder_row, t0 + i)
                         : 0.0F;
            } else {
              a_in = a_reg[idx(i, j - 1)];
            }
            const double ps_in = (i == 0) ? 0.0 : ps_reg[idx(i - 1, j)];
            const double ps_out =
                ps_in + static_cast<double>(w[idx(i, j)]) *
                            static_cast<double>(a_in);
            if (row_index >= 0 && row_index < m) {
              result.mac_ops += 1;
              busy.add(i, j, 1);
            }
            a_next[idx(i, j)] = a_in;
            ps_next[idx(i, j)] = ps_out;
            // Bottom row: the cascaded sum for activation row `exit_row`
            // leaves the array into the accumulators.
            if (i == used_t - 1) {
              const std::int64_t exit_row = s - (used_t - 1) - j;
              if (exit_row >= 0 && exit_row < m) {
                acc[static_cast<std::size_t>(exit_row * n + col0 + j)] +=
                    ps_out;
              }
            }
          }
        }
        a_reg.swap(a_next);
        ps_reg.swap(ps_next);
      }
      result.cycles += static_cast<std::uint64_t>(stream_cycles);
    }
  });
  for (std::int64_t i = 0; i < m * n; ++i) {
    result.output[i] = static_cast<float>(acc[static_cast<std::size_t>(i)]);
  }
  result.pe_busy = busy.to_tensor();
  return result;
}

SimResult SystolicArraySim::matmul_is_reference(const Tensor& a,
                                                const Tensor& b) {
  detail::check_matmul_operands(a, b, "sim matmul_is");
  const std::int64_t m = a.shape().dim(0);
  const std::int64_t depth = a.shape().dim(1);
  const std::int64_t n = b.shape().dim(1);

  SimResult result;
  result.output = Tensor(Shape{m, n});
  detail::BusyGrid busy(m, depth, cfg_);
  std::vector<double> acc(static_cast<std::size_t>(m * n), 0.0);

  // Activation tiles: M over the array rows, reduction depth over columns
  // (the same grid for_each_matmul_fold prices on IS).
  for_each_fold_tile(m, depth, cfg_, [&](const FoldTile& tile) {
    {
      const std::int64_t row0 = tile.a0;
      const std::int64_t used_m = tile.rows;
      const std::int64_t t0 = tile.b0;
      const std::int64_t used_t = tile.cols;
      result.folds += 1;

      const auto idx = [&](std::int64_t i, std::int64_t j) {
        return static_cast<std::size_t>(i * used_t + j);
      };
      // Preload the activation tile, one row per cycle.
      std::vector<float> pinned(idx(used_m - 1, used_t - 1) + 1, 0.0F);
      for (std::int64_t i = 0; i < used_m; ++i) {
        for (std::int64_t j = 0; j < used_t; ++j) {
          pinned[idx(i, j)] = a.at_unchecked(row0 + i, t0 + j);
        }
      }
      result.cycles += static_cast<std::uint64_t>(used_m);

      // Stream B's columns down the array; partial sums cascade rightward.
      std::vector<float> b_reg(pinned.size(), 0.0F);
      std::vector<float> b_next(pinned.size(), 0.0F);
      std::vector<double> ps_reg(pinned.size(), 0.0);
      std::vector<double> ps_next(pinned.size(), 0.0);
      const std::int64_t stream_cycles = n + used_m + used_t - 2;
      for (std::int64_t s = 0; s < stream_cycles; ++s) {
        for (std::int64_t i = 0; i < used_m; ++i) {
          for (std::int64_t j = 0; j < used_t; ++j) {
            const std::int64_t out_col = s - i - j;  // output column here
            float b_in = 0.0F;
            if (i == 0) {
              const std::int64_t feeder_col = s - j;
              b_in = (feeder_col >= 0 && feeder_col < n)
                         ? b.at_unchecked(t0 + j, feeder_col)
                         : 0.0F;
            } else {
              b_in = b_reg[idx(i - 1, j)];
            }
            const double ps_in = (j == 0) ? 0.0 : ps_reg[idx(i, j - 1)];
            const double ps_out =
                ps_in + static_cast<double>(pinned[idx(i, j)]) *
                            static_cast<double>(b_in);
            if (out_col >= 0 && out_col < n) {
              result.mac_ops += 1;
              busy.add(i, j, 1);
            }
            b_next[idx(i, j)] = b_in;
            ps_next[idx(i, j)] = ps_out;
            if (j == used_t - 1) {
              const std::int64_t exit_col = s - (used_t - 1) - i;
              if (exit_col >= 0 && exit_col < n) {
                acc[static_cast<std::size_t>((row0 + i) * n + exit_col)] +=
                    ps_out;
              }
            }
          }
        }
        b_reg.swap(b_next);
        ps_reg.swap(ps_next);
      }
      result.cycles += static_cast<std::uint64_t>(stream_cycles);
    }
  });
  for (std::int64_t i = 0; i < m * n; ++i) {
    result.output[i] = static_cast<float>(acc[static_cast<std::size_t>(i)]);
  }
  result.pe_busy = busy.to_tensor();
  return result;
}

SimResult SystolicArraySim::conv1d_broadcast_reference(
    const Tensor& lines, const Tensor& kernels) {
  detail::check_conv1d_operands(lines, kernels, cfg_);
  const std::int64_t num_lines = lines.shape().dim(0);
  const std::int64_t width = lines.shape().dim(1);
  const std::int64_t taps = kernels.shape().dim(1);
  const std::int64_t out_w = width - taps + 1;

  SimResult result;
  result.output = Tensor(Shape{num_lines, out_w});
  detail::BusyGrid busy(num_lines, out_w, cfg_);

  for_each_fold_tile(num_lines, out_w, cfg_, [&](const FoldTile& tile) {
    {
      const std::int64_t line0 = tile.a0;
      const std::int64_t used_rows = tile.rows;
      const std::int64_t out0 = tile.b0;
      const std::int64_t used_cols = tile.cols;
      result.folds += 1;

      const auto idx = [&](std::int64_t r, std::int64_t c) {
        return static_cast<std::size_t>(r * used_cols + c);
      };
      std::vector<double> acc(idx(used_rows - 1, used_cols - 1) + 1, 0.0);
      std::vector<float> window(acc.size(), 0.0F);

      // One leftward shift of every row's input window; the right edge
      // injects lines[line][out0 + inject].
      const auto shift_in = [&](std::int64_t inject) {
        for (std::int64_t r = 0; r < used_rows; ++r) {
          for (std::int64_t c = 0; c + 1 < used_cols; ++c) {
            window[idx(r, c)] = window[idx(r, c + 1)];
          }
          window[idx(r, used_cols - 1)] =
              lines.at_unchecked(line0 + r, out0 + inject);
        }
      };

      // Phase 1 — prefill: (used_cols - 1) cycles stream the first window
      // values through the row so PE c holds lines[.][out0 + c] when the
      // first weight is broadcast.
      for (std::int64_t p = 0; p + 1 < used_cols; ++p) {
        shift_in(p);
      }

      // Phase 2 — compute: at cycle k the row bus broadcasts
      // kernels[line][k]; the window advances one step first so PE c sees
      // lines[.][out0 + c + k].
      for (std::int64_t k = 0; k < taps; ++k) {
        shift_in(used_cols - 1 + k);
        for (std::int64_t r = 0; r < used_rows; ++r) {
          const float weight = kernels.at_unchecked(line0 + r, k);
          for (std::int64_t c = 0; c < used_cols; ++c) {
            acc[idx(r, c)] += static_cast<double>(weight) *
                              static_cast<double>(window[idx(r, c)]);
            result.mac_ops += 1;
            busy.add(r, c, 1);
          }
        }
      }

      // Phase 3 — drain down the columns, used_rows cycles.
      for (std::int64_t r = 0; r < used_rows; ++r) {
        for (std::int64_t c = 0; c < used_cols; ++c) {
          result.output.at_unchecked(line0 + r, out0 + c) =
              static_cast<float>(acc[idx(r, c)]);
        }
      }

      result.cycles += static_cast<std::uint64_t>((used_cols - 1) + taps +
                                                  used_rows);
    }
  });
  result.pe_busy = busy.to_tensor();
  return result;
}

}  // namespace fuse::systolic
