// Systolic array configuration.
#pragma once

#include <cstdint>
#include <string>

#include "util/check.hpp"

namespace fuse::systolic {

/// Supported dataflows. The paper evaluates output-stationary only (§V-A3)
/// and notes input/weight stationary as the other standard choices (§II-C);
/// this repo implements all three so the FuSe result can be checked for
/// robustness across dataflows (bench_ablation_dataflow).
enum class Dataflow {
  kOutputStationary,  // outputs accumulate in place (Fig. 1(d))
  kWeightStationary,  // weights preloaded, activations stream (TPU-style)
  kInputStationary,   // activations preloaded, weights stream
};

/// "OS" / "WS" / "IS".
inline std::string dataflow_name(Dataflow dataflow) {
  switch (dataflow) {
    case Dataflow::kOutputStationary:
      return "OS";
    case Dataflow::kWeightStationary:
      return "WS";
    case Dataflow::kInputStationary:
      return "IS";
  }
  return "?";
}

/// Inter-PE pipelining mode (ArrayFlex-style configurable transparency).
/// The classic array registers every hop: operands move one PE per cycle,
/// so wavefront skew and drain cost one cycle per PE traversed. A
/// transparent array chains groups of 2 or 4 PEs combinationally: values
/// cross a whole group per cycle, dividing the skew/drain terms — at the
/// price of a longer critical path, i.e. a lower clock
/// (ArrayConfig::effective_freq_mhz). MAC throughput (one per PE per
/// cycle) and weight preload bandwidth (one row per cycle) are unchanged.
enum class Pipelining {
  kPipelined,     // register every hop (the paper's array; default)
  kTransparent2,  // combinational groups of 2 PEs
  kTransparent4,  // combinational groups of 4 PEs
};

/// "pipelined" / "transparent2" / "transparent4".
inline std::string pipelining_name(Pipelining mode) {
  switch (mode) {
    case Pipelining::kPipelined:
      return "pipelined";
    case Pipelining::kTransparent2:
      return "transparent2";
    case Pipelining::kTransparent4:
      return "transparent4";
  }
  return "?";
}

/// PE datapath width. Cycle counts are datapath-independent (one MAC per
/// PE per cycle either way); the width moves silicon area/power
/// (hw/area_power.cpp) and the operand byte volume when the memory
/// system's dtype matches (MemoryConfig::dtype_bytes — the design-space
/// explorer pairs them).
enum class Datapath {
  kInt8,
  kFp16,  // the paper's setup; default
  kFp32,
};

/// "int8" / "fp16" / "fp32".
inline std::string datapath_name(Datapath dp) {
  switch (dp) {
    case Datapath::kInt8:
      return "int8";
    case Datapath::kFp16:
      return "fp16";
    case Datapath::kFp32:
      return "fp32";
  }
  return "?";
}

/// Operand bytes of a datapath (1 / 2 / 4).
inline std::int64_t datapath_bytes(Datapath dp) {
  switch (dp) {
    case Datapath::kInt8:
      return 1;
    case Datapath::kFp16:
      return 2;
    case Datapath::kFp32:
      return 4;
  }
  return 2;
}

/// A rows x cols grid of MAC PEs. `broadcast_links` enables the paper's
/// proposed per-row weight-broadcast bus (Fig. 5); without it FuSeConv's
/// 1-D convolutions cannot be mapped row-parallel and fall back to the
/// depthwise-style single-column mapping.
struct ArrayConfig {
  std::int64_t rows = 64;
  std::int64_t cols = 64;
  Dataflow dataflow = Dataflow::kOutputStationary;
  bool broadcast_links = true;
  Pipelining pipelining = Pipelining::kPipelined;
  Datapath datapath = Datapath::kFp16;

  /// When true (default), the drain of each fold overlaps the fill of the
  /// next fold of the same operator (double-buffered accumulators), so only
  /// the last fold pays the drain. When false every fold pays skew +
  /// compute + drain, which is exactly what the cycle-level simulator
  /// measures; tests cross-check the two in that mode.
  bool overlap_fold_drain = true;

  double freq_mhz = 700.0;  // used only to convert cycles to wall time

  std::int64_t pe_count() const { return rows * cols; }

  /// PEs per combinational group: 1 (pipelined), 2, or 4.
  std::int64_t transparency() const {
    switch (pipelining) {
      case Pipelining::kPipelined:
        return 1;
      case Pipelining::kTransparent2:
        return 2;
      case Pipelining::kTransparent4:
        return 4;
    }
    return 1;
  }

  /// Cycles for a wavefront to skew across `span` PEs along one axis:
  /// (span - 1) hops, one cycle per `transparency()`-sized group. At the
  /// default pipelined mode this is exactly the (R-1) / (C-1) fill terms
  /// of docs/latency_model.md.
  std::int64_t skew_cycles(std::int64_t span) const {
    const std::int64_t p = transparency();
    return (span - 1 + p - 1) / p;
  }

  /// Cycles to drain `span` accumulator rows out of the array: span hops
  /// (the last row's result crosses the whole used height), again one
  /// cycle per transparent group. Pipelined mode: exactly `span`.
  std::int64_t drain_cycles(std::int64_t span) const {
    const std::int64_t p = transparency();
    return (span + p - 1) / p;
  }

  /// Operand bytes of the configured datapath (1 / 2 / 4).
  std::int64_t datapath_bytes() const {
    return systolic::datapath_bytes(datapath);
  }

  /// Achievable clock after the transparency critical-path derate:
  /// chaining 2 (4) PEs combinationally lengthens the cycle by ~25%
  /// (~75%), the ArrayFlex-style tradeoff the design-space explorer
  /// weighs against the saved skew/drain cycles. Pipelined mode runs at
  /// `freq_mhz` unchanged.
  double effective_freq_mhz() const {
    switch (pipelining) {
      case Pipelining::kPipelined:
        return freq_mhz;
      case Pipelining::kTransparent2:
        return freq_mhz / 1.25;
      case Pipelining::kTransparent4:
        return freq_mhz / 1.75;
    }
    return freq_mhz;
  }

  /// Rejects non-positive dimensions, a PE count that overflows int64
  /// (pe_count() and every fold product are int64), and a non-positive
  /// clock.
  void validate() const {
    FUSE_CHECK(rows > 0 && cols > 0)
        << "array must have positive dimensions, got " << rows << "x" << cols;
    std::int64_t pes = 0;
    FUSE_CHECK(!__builtin_mul_overflow(rows, cols, &pes))
        << "array " << rows << "x" << cols << " has more PEs than int64 holds";
    FUSE_CHECK(freq_mhz > 0.0) << "frequency must be positive";
  }

  std::string to_string() const {
    std::string s = std::to_string(rows) + "x" + std::to_string(cols) +
                    (broadcast_links ? " (+broadcast)" : "");
    if (pipelining != Pipelining::kPipelined) {
      s += " " + pipelining_name(pipelining);
    }
    if (datapath != Datapath::kFp16) {
      s += " " + datapath_name(datapath);
    }
    return s;
  }

  bool operator==(const ArrayConfig&) const = default;
};

/// Square array shorthand.
inline ArrayConfig square_array(std::int64_t size,
                                bool broadcast_links = true) {
  ArrayConfig cfg;
  cfg.rows = size;
  cfg.cols = size;
  cfg.broadcast_links = broadcast_links;
  return cfg;
}

}  // namespace fuse::systolic
