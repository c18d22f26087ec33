#include "systolic/cycle_model.hpp"

#include "util/check.hpp"

namespace fuse::systolic {

LatencyEstimate& LatencyEstimate::operator+=(const LatencyEstimate& other) {
  cycles += other.cycles;
  folds += other.folds;
  mac_ops += other.mac_ops;
  if (pe_count == 0) {
    pe_count = other.pe_count;
  }
  FUSE_CHECK(other.pe_count == 0 || other.pe_count == pe_count)
      << "accumulating latencies from different array sizes";
  return *this;
}

LatencyEstimate matmul_latency(std::int64_t m, std::int64_t t,
                               std::int64_t n, const ArrayConfig& cfg) {
  cfg.validate();
  FUSE_CHECK(m > 0 && t > 0 && n > 0)
      << "matmul_latency(" << m << ", " << t << ", " << n << ")";
  LatencyEstimate est;
  est.pe_count = cfg.pe_count();
  for_each_matmul_fold(m, t, n, cfg,
                       [&](const FoldTile&, std::uint64_t cycles,
                           std::uint64_t macs) {
                         est.cycles += cycles;
                         est.folds += 1;
                         est.mac_ops += macs;
                       });
  return est;
}

LatencyEstimate fuse1d_latency(std::int64_t lines, std::int64_t line_out,
                               std::int64_t k, const ArrayConfig& cfg) {
  cfg.validate();
  FUSE_CHECK(cfg.broadcast_links)
      << "fuse1d_latency models the proposed broadcast dataflow";
  FUSE_CHECK(lines > 0 && line_out > 0 && k > 0)
      << "fuse1d_latency(" << lines << ", " << line_out << ", " << k << ")";
  LatencyEstimate est;
  est.pe_count = cfg.pe_count();
  for_each_fuse1d_fold(lines, line_out, k, cfg,
                       [&](const FoldTile&, std::uint64_t cycles,
                           std::uint64_t macs) {
                         est.cycles += cycles;
                         est.folds += 1;
                         est.mac_ops += macs;
                       });
  return est;
}

}  // namespace fuse::systolic
