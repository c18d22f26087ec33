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
#include <vector>

#include "systolic/sim.hpp"
#include "systolic/sim_detail.hpp"
#include "util/check.hpp"

namespace fuse::systolic {

using tensor::Shape;
using tensor::Tensor;

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
  // (the same grid matmul_latency_ws walks).
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
  // (the same grid matmul_latency_is walks).
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
