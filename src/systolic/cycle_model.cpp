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

LatencyEstimate conv_im2col_latency(std::int64_t out_h, std::int64_t out_w,
                                    std::int64_t k_h, std::int64_t k_w,
                                    std::int64_t in_c, std::int64_t out_c,
                                    const ArrayConfig& cfg) {
  return matmul_latency(out_h * out_w, k_h * k_w * in_c, out_c, cfg);
}

LatencyEstimate depthwise_im2col_latency(std::int64_t channels,
                                         std::int64_t out_h,
                                         std::int64_t out_w, std::int64_t k,
                                         const ArrayConfig& cfg) {
  FUSE_CHECK(channels > 0) << "depthwise needs channels > 0";
  // One single-column matmul per channel; different channels read different
  // inputs, so the idle columns cannot be given to other channels (§III-B).
  const LatencyEstimate per_channel =
      matmul_latency(out_h * out_w, k * k, /*n=*/1, cfg);
  LatencyEstimate est;
  est.pe_count = cfg.pe_count();
  est.cycles = per_channel.cycles * static_cast<std::uint64_t>(channels);
  est.folds = per_channel.folds * static_cast<std::uint64_t>(channels);
  est.mac_ops = per_channel.mac_ops * static_cast<std::uint64_t>(channels);
  return est;
}

LatencyEstimate conv_channelwise_latency(std::int64_t out_h,
                                         std::int64_t out_w, std::int64_t k_h,
                                         std::int64_t k_w, std::int64_t in_c,
                                         std::int64_t out_c,
                                         const ArrayConfig& cfg) {
  // One [positions, in_c] x [in_c, out_c] matmul per kernel tap; the adder
  // tree reduction is folded into the drain already counted per fold.
  const LatencyEstimate per_tap =
      matmul_latency(out_h * out_w, in_c, out_c, cfg);
  const std::uint64_t taps =
      static_cast<std::uint64_t>(k_h) * static_cast<std::uint64_t>(k_w);
  LatencyEstimate est;
  est.pe_count = cfg.pe_count();
  est.cycles = per_tap.cycles * taps;
  est.folds = per_tap.folds * taps;
  est.mac_ops = per_tap.mac_ops * taps;
  return est;
}

LatencyEstimate fuse1d_latency(std::int64_t lines, std::int64_t line_out,
                               std::int64_t k, const ArrayConfig& cfg) {
  cfg.validate();
  FUSE_CHECK(cfg.broadcast_links)
      << "fuse1d_latency models the proposed broadcast dataflow; "
         "use fuse1d_no_broadcast_latency for a baseline array";
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

LatencyEstimate fuse1d_no_broadcast_latency(std::int64_t lines,
                                            std::int64_t line_out,
                                            std::int64_t k,
                                            const ArrayConfig& cfg) {
  FUSE_CHECK(lines > 0) << "fuse1d needs lines > 0";
  const LatencyEstimate per_line = matmul_latency(line_out, k, /*n=*/1, cfg);
  LatencyEstimate est;
  est.pe_count = cfg.pe_count();
  est.cycles = per_line.cycles * static_cast<std::uint64_t>(lines);
  est.folds = per_line.folds * static_cast<std::uint64_t>(lines);
  est.mac_ops = per_line.mac_ops * static_cast<std::uint64_t>(lines);
  return est;
}

LatencyEstimate fully_connected_latency(std::int64_t in_f,
                                        std::int64_t out_f,
                                        const ArrayConfig& cfg) {
  return matmul_latency(/*m=*/1, in_f, out_f, cfg);
}

}  // namespace fuse::systolic
