// Internals shared by the simulator's two engines (sim_reference.cpp /
// sim_fast.cpp): exact integer per-PE busy accounting and the common
// operand validation. Not installed API — include only from sim*.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "systolic/config.hpp"
#include "systolic/sim.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"

namespace fuse::systolic::detail {

/// Exact per-PE busy-cycle counts for one simulated call. float
/// accumulation (+= 1.0F per live cycle) silently loses counts past 2^24
/// on large layers; both engines count in uint64 and convert to the
/// float tensor once at the end.
///
/// Every fold tile is anchored at PE (0, 0), so a call walking the
/// a x b fold grid (for_each_fold_tile(a, b, ...)) only ever touches the
/// min(a, rows) x min(b, cols) corner of the array; only that corner is
/// counted and converted. A depthwise channel's single-column matmul
/// touches one column of the grid.
class BusyGrid {
 public:
  BusyGrid(std::int64_t a, std::int64_t b, const ArrayConfig& cfg)
      : rows_(cfg.rows),
        cols_(cfg.cols),
        used_rows_(std::min(a, cfg.rows)),
        used_cols_(std::min(b, cfg.cols)),
        counts_(static_cast<std::size_t>(used_rows_ * used_cols_), 0) {}

  void add(std::int64_t i, std::int64_t j, std::uint64_t n) {
    counts_[static_cast<std::size_t>(i * used_cols_ + j)] += n;
  }

  /// Adds `n` to every PE of the [0, used_rows) x [0, used_cols) tile —
  /// the per-fold busy pattern of every dataflow (each live PE of a fold
  /// performs the same number of MACs).
  void add_tile(std::int64_t used_rows, std::int64_t used_cols,
                std::uint64_t n) {
    for (std::int64_t i = 0; i < used_rows; ++i) {
      std::uint64_t* row = counts_.data() + i * used_cols_;
      for (std::int64_t j = 0; j < used_cols; ++j) {
        row[j] += n;
      }
    }
  }

  /// The [rows, cols] pe_busy tensor. The conversion is signed: a count
  /// stays below 2^63, and int64 -> float is one instruction where
  /// uint64 -> float is a branchy sequence.
  tensor::Tensor to_tensor() const {
    tensor::Tensor out(tensor::Shape{rows_, cols_});
    float* dst = out.data();
    for (std::int64_t i = 0; i < used_rows_; ++i) {
      const std::uint64_t* row = counts_.data() + i * used_cols_;
      for (std::int64_t j = 0; j < used_cols_; ++j) {
        dst[i * cols_ + j] =
            static_cast<float>(static_cast<std::int64_t>(row[j]));
      }
    }
    return out;
  }

 private:
  std::int64_t rows_;
  std::int64_t cols_;
  std::int64_t used_rows_;
  std::int64_t used_cols_;
  std::vector<std::uint64_t> counts_;
};

/// Sums the passes of one call: counters, and per-PE busy counts in
/// exact integers (each pass's pe_busy holds integer-valued floats),
/// converted to the [rows, cols] float grid once. A pass repeated
/// `repeats` times is added once, scaled.
class PassSum {
 public:
  explicit PassSum(const ArrayConfig& cfg)
      : rows_(cfg.rows),
        cols_(cfg.cols),
        busy_(static_cast<std::size_t>(rows_ * cols_), 0) {}

  void add(const SimResult& pass, std::uint64_t repeats = 1) {
    total_.cycles += pass.cycles * repeats;
    total_.folds += pass.folds * repeats;
    total_.mac_ops += pass.mac_ops * repeats;
    const float* busy = pass.pe_busy.data();
    for (std::size_t i = 0; i < busy_.size(); ++i) {
      busy_[i] += static_cast<std::uint64_t>(busy[i]) * repeats;
    }
  }

  /// The summed result, carrying `output`.
  SimResult finish(tensor::Tensor output) {
    total_.output = std::move(output);
    total_.pe_busy = tensor::Tensor(tensor::Shape{rows_, cols_});
    float* dst = total_.pe_busy.data();
    for (std::size_t i = 0; i < busy_.size(); ++i) {
      dst[i] = static_cast<float>(busy_[i]);
    }
    return std::move(total_);
  }

 private:
  std::int64_t rows_;
  std::int64_t cols_;
  std::vector<std::uint64_t> busy_;
  SimResult total_;
};

/// Validates rank-2 [M, T] x [T, N] matmul operands; returns nothing,
/// throws fuse::util::Error with `op` in the message on mismatch.
inline void check_matmul_operands(const tensor::Tensor& a,
                                  const tensor::Tensor& b, const char* op) {
  FUSE_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2)
      << op << " expects rank-2 operands";
  FUSE_CHECK(a.shape().dim(1) == b.shape().dim(0))
      << op << " inner dims differ: " << a.shape().to_string() << " x "
      << b.shape().to_string();
}

/// Validates conv1d_broadcast operands: lines [L, W], kernels [L, K],
/// W >= K >= 1, and the array must have the broadcast bus.
inline void check_conv1d_operands(const tensor::Tensor& lines,
                                  const tensor::Tensor& kernels,
                                  const ArrayConfig& cfg) {
  FUSE_CHECK(cfg.broadcast_links)
      << "conv1d_broadcast requires an array with row broadcast links";
  FUSE_CHECK(lines.shape().rank() == 2 && kernels.shape().rank() == 2)
      << "conv1d_broadcast expects lines [L, W] and kernels [L, K]";
  FUSE_CHECK(lines.shape().dim(0) == kernels.shape().dim(0))
      << "line/kernel count mismatch: " << lines.shape().to_string()
      << " vs " << kernels.shape().to_string();
  FUSE_CHECK(kernels.shape().dim(1) >= 1)
      << "conv1d_broadcast needs at least one tap: kernels "
      << kernels.shape().to_string();
  FUSE_CHECK(lines.shape().dim(1) >= kernels.shape().dim(1))
      << "line shorter than kernel: W=" << lines.shape().dim(1)
      << " K=" << kernels.shape().dim(1);
}

}  // namespace fuse::systolic::detail
