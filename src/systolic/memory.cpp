#include "systolic/memory.hpp"

#include <cmath>

#include "util/check.hpp"

namespace fuse::systolic {

namespace {

std::uint64_t ceil_div(std::int64_t a, std::int64_t b) {
  return static_cast<std::uint64_t>((a + b - 1) / b);
}

}  // namespace

std::uint64_t TrafficEstimate::memory_cycles(const MemoryConfig& mem) const {
  mem.validate();
  return static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(total_bytes()) /
                mem.dram_bytes_per_cycle));
}

TrafficEstimate& TrafficEstimate::operator+=(const TrafficEstimate& other) {
  input_bytes += other.input_bytes;
  weight_bytes += other.weight_bytes;
  output_bytes += other.output_bytes;
  return *this;
}

TrafficEstimate matmul_traffic(std::int64_t m, std::int64_t t,
                               std::int64_t n, const ArrayConfig& cfg,
                               const MemoryConfig& mem) {
  cfg.validate();
  mem.validate();
  FUSE_CHECK(m > 0 && t > 0 && n > 0) << "matmul_traffic dims";
  const std::uint64_t col_folds = ceil_div(n, cfg.cols);
  const std::uint64_t row_folds = ceil_div(m, cfg.rows);
  const std::uint64_t dtype =
      static_cast<std::uint64_t>(mem.dtype_bytes);
  TrafficEstimate traffic;
  traffic.input_bytes =
      static_cast<std::uint64_t>(m * t) * col_folds * dtype;
  traffic.weight_bytes =
      static_cast<std::uint64_t>(t * n) * row_folds * dtype;
  traffic.output_bytes = static_cast<std::uint64_t>(m * n) * dtype;
  return traffic;
}

TrafficEstimate fuse1d_traffic(std::int64_t lines, std::int64_t line_out,
                               std::int64_t k, const ArrayConfig& cfg,
                               const MemoryConfig& mem) {
  cfg.validate();
  mem.validate();
  FUSE_CHECK(lines > 0 && line_out > 0 && k > 0) << "fuse1d_traffic dims";
  const std::uint64_t dtype =
      static_cast<std::uint64_t>(mem.dtype_bytes);
  TrafficEstimate traffic;
  // Each column-fold of a line reads its window: used_cols + k - 1 values.
  // Summed over the ceil(line_out / cols) folds the used_cols telescope to
  // line_out, so the whole loop collapses to closed form.
  const std::uint64_t col_folds = ceil_div(line_out, cfg.cols);
  traffic.input_bytes =
      static_cast<std::uint64_t>(lines) *
      (static_cast<std::uint64_t>(line_out) +
       col_folds * static_cast<std::uint64_t>(k - 1)) *
      dtype;
  // The k broadcast weights are re-fetched per wave.
  traffic.weight_bytes = static_cast<std::uint64_t>(lines) *
                         static_cast<std::uint64_t>(k) * col_folds * dtype;
  traffic.output_bytes = static_cast<std::uint64_t>(lines) *
                         static_cast<std::uint64_t>(line_out) * dtype;
  return traffic;
}

}  // namespace fuse::systolic
