// DRAM-traffic / roofline extension.
//
// The paper's methodology assumes performance is limited only by operations
// on the array (§V-A3) — main memory and buffers never stall it. This
// module quantifies when that assumption holds: it counts the DRAM traffic
// each mapping generates (operands are re-streamed once per fold that
// consumes them; outputs leave once), converts it to cycles under a
// bandwidth, and combines with the compute cycles as a roofline
// max(compute, memory). bench_ablation_memory sweeps the bandwidth and
// reports where the FuSe speedup starts to erode.
#pragma once

#include <cstdint>

#include "systolic/config.hpp"
#include "systolic/cycle_model.hpp"

namespace fuse::systolic {

/// Off-array memory system. Default: FP16 operands, 16 bytes/cycle of DRAM
/// bandwidth (e.g. 64-bit LPDDR4-class channel at ~2x the array clock),
/// and an 8 MiB on-chip SRAM shared by fold staging and activation
/// buffers (the network-level scheduler in sched/netplan.hpp plans
/// liveness-based allocations against this capacity).
struct MemoryConfig {
  double dram_bytes_per_cycle = 16.0;
  std::int64_t dtype_bytes = 2;  // FP16, as in the paper's setup
  std::int64_t sram_bytes = 8 * 1024 * 1024;

  void validate() const {
    FUSE_CHECK(dram_bytes_per_cycle > 0.0 && dtype_bytes > 0)
        << "bad memory config";
    FUSE_CHECK(sram_bytes > 0) << "bad memory config: sram_bytes";
  }
};

/// DRAM bytes moved by one operator.
struct TrafficEstimate {
  std::uint64_t input_bytes = 0;
  std::uint64_t weight_bytes = 0;
  std::uint64_t output_bytes = 0;

  std::uint64_t total_bytes() const {
    return input_bytes + weight_bytes + output_bytes;
  }

  /// Cycles to move the traffic at the configured bandwidth.
  std::uint64_t memory_cycles(const MemoryConfig& mem) const;

  TrafficEstimate& operator+=(const TrafficEstimate& other);
};

/// Roofline combination of compute and memory cost. With double-buffered
/// SRAM, transfers overlap compute, so the operator takes the max.
struct RooflineLatency {
  std::uint64_t compute_cycles = 0;
  std::uint64_t memory_cycles = 0;

  std::uint64_t bound_cycles() const {
    return compute_cycles > memory_cycles ? compute_cycles : memory_cycles;
  }
};

// --- traffic per mapping ------------------------------------------------------
// Re-streaming rule: in an output-stationary fold grid, the A operand is
// read once per column-fold and B once per row-fold; outputs leave once.

/// Dense matmul [M, T] x [T, N].
TrafficEstimate matmul_traffic(std::int64_t m, std::int64_t t,
                               std::int64_t n, const ArrayConfig& cfg,
                               const MemoryConfig& mem);

/// FuSeConv 1-D stage on the broadcast dataflow: each wave re-reads its
/// input window (line_out + k - 1 values per line per column-fold) and the
/// k broadcast weights; no im2col inflation.
TrafficEstimate fuse1d_traffic(std::int64_t lines, std::int64_t line_out,
                               std::int64_t k, const ArrayConfig& cfg,
                               const MemoryConfig& mem);

}  // namespace fuse::systolic
