// Analytic cycle model (SCALE-Sim methodology, §V-A3 of the paper).
//
// Performance is assumed limited only by operations on the array: we add up
// the cycles to load values into the array (wavefront skew), compute in the
// MACs, systolically communicate partials, and flush outputs. Main memory
// and buffers are assumed never to stall the array.
//
// The primitive is one output-stationary *fold*: an R x Cc output tile
// (R <= rows, Cc <= cols) with reduction depth T costs
//
//   cycles(R, Cc, T) = (R - 1) + (Cc - 1)   // skew to fill the wavefront
//                    + T                    // one MAC per PE per cycle
//                    + R                    // drain partials down columns
//
// The cycle-level simulator in sim.hpp implements the same dataflow with a
// real PE grid and is asserted in tests to match these counts exactly.
//
// On a transparent array (ArrayConfig::pipelining != kPipelined) the skew
// and drain terms shrink to ceil((R-1)/p) / ceil(R/p) for transparency p —
// see ArrayConfig::skew_cycles / drain_cycles; the compute term T and the
// WS/IS preload (row-load bandwidth) are unchanged. The pipelined default
// reproduces the formulas above exactly.
#pragma once

#include <algorithm>
#include <cstdint>

#include "systolic/config.hpp"

namespace fuse::systolic {

/// Aggregated cost of running one operator on the array.
struct LatencyEstimate {
  std::uint64_t cycles = 0;
  std::uint64_t folds = 0;    // number of array passes
  std::uint64_t mac_ops = 0;  // useful multiply-accumulates performed
  std::int64_t pe_count = 0;  // PEs in the array used for utilization

  /// Fraction of PE-cycles doing useful MACs, in [0, 1].
  double utilization() const {
    if (cycles == 0 || pe_count == 0) {
      return 0.0;
    }
    return static_cast<double>(mac_ops) /
           (static_cast<double>(cycles) * static_cast<double>(pe_count));
  }

  /// Accumulates another operator's cost (operators run back-to-back).
  LatencyEstimate& operator+=(const LatencyEstimate& other);
};

/// One fold tile of an [a, b] surface: `a0`/`rows` index the array-row
/// dim, `b0`/`cols` the array-column dim.
struct FoldTile {
  std::int64_t a0 = 0;
  std::int64_t rows = 0;
  std::int64_t b0 = 0;
  std::int64_t cols = 0;
};

/// The canonical fold enumeration: row-major over ceil(a/rows) x
/// ceil(b/cols) tiles, edge tiles shortened. The priced walks below and
/// both simulator engines walk THIS order, which is what makes their
/// cycle counts comparable fold by fold.
template <typename Fn>
void for_each_fold_tile(std::int64_t a, std::int64_t b,
                        const ArrayConfig& cfg, Fn&& fn) {
  for (std::int64_t a0 = 0; a0 < a; a0 += cfg.rows) {
    const std::int64_t rows = std::min(cfg.rows, a - a0);
    for (std::int64_t b0 = 0; b0 < b; b0 += cfg.cols) {
      fn(FoldTile{a0, rows, b0, std::min(cfg.cols, b - b0)});
    }
  }
}

/// MAC-streaming cycles of every fold of a [M, T] x [T, N] matmul on cfg's
/// dataflow: the reduction depth T on OS, the M activation rows streamed
/// past the pinned weights on WS, the N weight columns streamed past the
/// pinned activations on IS. A pass's compute is folds x this window;
/// the rest of its cycles are skew, preload and drain.
inline std::int64_t matmul_stream_cycles(std::int64_t m, std::int64_t t,
                                         std::int64_t n,
                                         const ArrayConfig& cfg) {
  switch (cfg.dataflow) {
    case Dataflow::kOutputStationary:
      return t;
    case Dataflow::kWeightStationary:
      return m;
    case Dataflow::kInputStationary:
      return n;
  }
  return t;
}

/// The priced fold walk of one [M, T] x [T, N] matmul pass — the only
/// place the model prices a fold. Calls fn(tile, cycles, macs) once per
/// fold in canonical order:
///   OS (the paper's dataflow, Fig. 1(d)): [M, N] output tiles; each fold
///      costs skew(R) + skew(C) + T, plus the R-row drain — which, under
///      overlap_fold_drain, hides behind the next fold's fill, so only the
///      pass's last fold pays it;
///   WS (TPU-style): [T, N] weight tiles; each fold streams all M
///      activation rows, M + skew(T_u) + skew(N_u), plus the T_u-row
///      weight preload — under overlap_fold_drain only the first fold's
///      (double-buffered weight registers hide the rest);
///   IS: [M, T] activation tiles; N + skew(M_u) + skew(T_u), plus the M_u
///      preload, likewise.
/// Preload is row-load-bandwidth bound (one row per cycle), so
/// transparency shortens only the skew and drain terms. The dataflow is
/// decided once per pass, outside the fold loop: lowering calls this for
/// every layer, and a per-fold branch slows it measurably.
template <typename Fn>
void for_each_matmul_fold(std::int64_t m, std::int64_t t, std::int64_t n,
                          const ArrayConfig& cfg, Fn&& fn) {
  const std::int64_t stream = matmul_stream_cycles(m, t, n, cfg);
  const bool overlap = cfg.overlap_fold_drain;
  if (cfg.dataflow == Dataflow::kOutputStationary) {
    // Origin of the row-major-last tile: the fold that pays the drain.
    const std::int64_t last_a0 = (m - 1) / cfg.rows * cfg.rows;
    const std::int64_t last_b0 = (n - 1) / cfg.cols * cfg.cols;
    for_each_fold_tile(m, n, cfg, [&](const FoldTile& tile) {
      std::int64_t cycles =
          cfg.skew_cycles(tile.rows) + cfg.skew_cycles(tile.cols) + stream;
      if (!overlap || (tile.a0 == last_a0 && tile.b0 == last_b0)) {
        cycles += cfg.drain_cycles(tile.rows);
      }
      fn(tile, static_cast<std::uint64_t>(cycles),
         static_cast<std::uint64_t>(tile.rows * tile.cols) *
             static_cast<std::uint64_t>(stream));
    });
    return;
  }
  // WS pins [T, N] weight tiles, IS pins [M, T] activation tiles; both
  // preload the pinned tile one row per cycle.
  const bool ws = cfg.dataflow == Dataflow::kWeightStationary;
  for_each_fold_tile(ws ? t : m, ws ? n : t, cfg, [&](const FoldTile& tile) {
    std::int64_t cycles =
        stream + cfg.skew_cycles(tile.rows) + cfg.skew_cycles(tile.cols);
    if (!overlap || (tile.a0 == 0 && tile.b0 == 0)) {
      cycles += tile.rows;
    }
    fn(tile, static_cast<std::uint64_t>(cycles),
       static_cast<std::uint64_t>(tile.rows * tile.cols) *
           static_cast<std::uint64_t>(stream));
  });
}

/// The priced fold walk of one broadcast FuSe pass (paper §IV-C): `lines`
/// 1-D convolutions of `line_out` outputs and `k` taps, one line per array
/// row. Calls fn(tile, cycles, macs) once per [lines, line_out] wave: C-1
/// input skew along the row, k broadcast MAC cycles, and the R-row drain
/// — under overlap_fold_drain only on the pass's last wave.
template <typename Fn>
void for_each_fuse1d_fold(std::int64_t lines, std::int64_t line_out,
                          std::int64_t k, const ArrayConfig& cfg, Fn&& fn) {
  const std::int64_t last_a0 = (lines - 1) / cfg.rows * cfg.rows;
  const std::int64_t last_b0 = (line_out - 1) / cfg.cols * cfg.cols;
  for_each_fold_tile(lines, line_out, cfg, [&](const FoldTile& tile) {
    std::int64_t cycles = cfg.skew_cycles(tile.cols) + k;
    if (!cfg.overlap_fold_drain ||
        (tile.a0 == last_a0 && tile.b0 == last_b0)) {
      cycles += cfg.drain_cycles(tile.rows);
    }
    fn(tile, static_cast<std::uint64_t>(cycles),
       static_cast<std::uint64_t>(tile.rows * tile.cols) *
           static_cast<std::uint64_t>(k));
  });
}

/// Dense matmul [M, T] x [T, N] on the configured dataflow: the sum of
/// for_each_matmul_fold.
LatencyEstimate matmul_latency(std::int64_t m, std::int64_t t,
                               std::int64_t n, const ArrayConfig& cfg);

/// FuSeConv's 1-D convolution stage on the proposed broadcast dataflow
/// (paper §IV-C). `lines` independent 1-D convolutions (channels x rows for
/// the row branch, channels x cols for the column branch), each producing
/// `line_out` outputs from a kernel of `k` taps. Each array row holds one
/// line; the per-row broadcast bus delivers one weight per cycle to all
/// PEs, so a wave of R lines x Cc outputs costs
///   (Cc - 1) + k + R
/// (input skew along the row, k broadcast MAC cycles, drain): the sum of
/// for_each_fuse1d_fold. Requires cfg.broadcast_links; without the links
/// each line degrades to a depthwise-style single-column
/// [line_out, k] x [k, 1] matmul (systolic::lower's fallback).
LatencyEstimate fuse1d_latency(std::int64_t lines, std::int64_t line_out,
                               std::int64_t k, const ArrayConfig& cfg);

}  // namespace fuse::systolic
