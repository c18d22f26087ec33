// Cycle-accurate functional simulator of the systolic array.
//
// Unlike the closed-form model in cycle_model.hpp, this models a real grid
// of PEs: operands enter skewed at the array edges, move one PE per cycle,
// each PE performs one MAC per cycle, and outputs are drained down the
// columns. It therefore produces both the numeric result and the exact
// cycle count, and the tests assert that
//   (1) results match the fuse::nn reference operators, and
//   (2) cycle counts match cycle_model.hpp exactly
// for both the classic output-stationary dataflow and the paper's proposed
// row-broadcast dataflow (Fig. 5/7).
//
// Two engines implement the model (docs/simulator.md):
//   * reference — the original per-cycle PE sweep (sim_reference.cpp):
//     every PE of every fold is stepped every cycle, registers and all.
//     This is the oracle; it is O((R + C + T) * R * C) per fold.
//   * fast — the wavefront interval engine (sim_fast.cpp): PE (i, j) is
//     live exactly while t - i - j is inside the reduction window, so its
//     accumulator is a straight dot product over its depth-length operand
//     stream. Counters and busy counts are closed-form per fold; the dot
//     products run over whole operands (every output-stationary fold of a
//     call is one nn::kernels::gemm_f64, every broadcast call one
//     nn::kernels::conv1d_lines_f64). Serial: O(R * C * T) per fold, no
//     bubble work.
// Both engines perform the identical floating-point operation sequence
// per output element, so their results are BIT-EXACT (memcmp on output
// and pe_busy, equal cycle/fold/MAC counters) for every dataflow and for
// the broadcast path, under every kernel ISA: the fast engine's AVX2
// kernels add each exact float x float product with one FMA, which
// rounds as the reference's multiply-then-add does. tools/check.sh and
// tests/test_systolic_sim.cpp enforce this.
//
// The engine is a constructor argument (default fast), so every simulator
// states which engine it runs; the simulator examples take it from
// --sim-backend.
#pragma once

#include <cstdint>
#include <string>

#include "systolic/config.hpp"
#include "systolic/mapping.hpp"
#include "tensor/tensor.hpp"

namespace fuse::systolic {

/// Which engine SystolicArraySim's public entry points dispatch to.
enum class SimBackend {
  kReference,  // per-cycle PE sweep (the oracle)
  kFast,       // closed-form wavefront intervals
};

/// Parses "fast" / "reference" (also "ref"). Returns false on anything
/// else.
bool parse_sim_backend(const std::string& name, SimBackend* out);

const char* sim_backend_name(SimBackend backend);

/// Output and measured cost of one simulated operator.
struct SimResult {
  tensor::Tensor output;
  std::uint64_t cycles = 0;
  std::uint64_t folds = 0;
  std::uint64_t mac_ops = 0;  // MACs with a live operand (not pipeline zeros)

  /// Per-PE busy-cycle counts over the whole call, shape [rows, cols] of
  /// the physical array. Accumulated as exact integer counts and
  /// converted to float once at the end; sum == mac_ops. Renders the
  /// utilization pathology directly: a depthwise im2col matmul lights up
  /// one column; the broadcast dataflow lights up the full grid (cf.
  /// paper Fig. 2(c) vs Fig. 7).
  tensor::Tensor pe_busy;
};

/// ASCII heatmap of a busy-count grid: '.' for idle, '1'..'9' scaled to
/// the maximum count. One text row per array row.
std::string render_pe_heatmap(const tensor::Tensor& pe_busy);

/// A software model of the PE grid. Stateless between calls; each call
/// tiles its operands over the array and simulates every fold. The
/// un-suffixed entry points run the engine chosen at construction; the
/// *_reference / *_fast methods pin an engine (the differential tests use
/// them directly).
class SystolicArraySim {
 public:
  explicit SystolicArraySim(ArrayConfig cfg,
                            SimBackend backend = SimBackend::kFast);

  const ArrayConfig& config() const { return cfg_; }

  /// Matmul a [M, T] x b [T, N] -> [M, N] on the configured dataflow.
  SimResult matmul(const tensor::Tensor& a, const tensor::Tensor& b);

  /// Output-stationary matmul: A streams in from the left edge
  /// (row-skewed), B from the top edge (column-skewed); each PE
  /// accumulates its output in place and the result is shifted out down
  /// the columns (paper Fig. 1(d)).
  SimResult matmul_os(const tensor::Tensor& a, const tensor::Tensor& b);

  /// Weight-stationary matmul (TPU-style): each fold preloads a
  /// rows x cols tile of B into the PEs, then streams the M rows of A
  /// through from the left while partial sums cascade down the columns
  /// into accumulators (which also sum across reduction folds).
  SimResult matmul_ws(const tensor::Tensor& a, const tensor::Tensor& b);

  /// Input-stationary matmul: symmetric to WS with A's tiles pinned in the
  /// PEs and B's columns streaming.
  SimResult matmul_is(const tensor::Tensor& a, const tensor::Tensor& b);

  /// The proposed FuSeConv dataflow: `lines` [L, W] independent 1-D signals
  /// convolved ('valid', stride 1) with per-line `kernels` [L, K] ->
  /// [L, W-K+1]. Each array row holds one line; at compute cycle k the
  /// row's broadcast bus carries kernels[l][k] to all PEs while the input
  /// window slides leftward through the row (paper Fig. 7).
  /// Requires config().broadcast_links.
  SimResult conv1d_broadcast(const tensor::Tensor& lines,
                             const tensor::Tensor& kernels);

  /// Simulates a lowered MappingPlan with synthetic (zero) operands: every
  /// primitive runs through the PE grid and the measured cycles, folds,
  /// MACs, and per-PE busy counts are returned; the numeric output is
  /// discarded (SimResult::output stays empty). Identical repeats are
  /// simulated once and scaled — every repeat is the same array pass.
  /// This is the simulator leg of the analytic == simulated == plan-folded
  /// differential property (tests/test_mapping.cpp); the cycle counts
  /// match the analytic model when cfg.overlap_fold_drain is off (the
  /// simulator always pays each fold's drain). Routes its primitive
  /// passes through the constructor's engine.
  SimResult run_plan(const MappingPlan& plan);

  // Engine-pinned entry points (ignore the constructor's engine).
  SimResult matmul_os_reference(const tensor::Tensor& a,
                                const tensor::Tensor& b);
  SimResult matmul_ws_reference(const tensor::Tensor& a,
                                const tensor::Tensor& b);
  SimResult matmul_is_reference(const tensor::Tensor& a,
                                const tensor::Tensor& b);
  SimResult conv1d_broadcast_reference(const tensor::Tensor& lines,
                                       const tensor::Tensor& kernels);
  SimResult matmul_os_fast(const tensor::Tensor& a, const tensor::Tensor& b);
  SimResult matmul_ws_fast(const tensor::Tensor& a, const tensor::Tensor& b);
  SimResult matmul_is_fast(const tensor::Tensor& a, const tensor::Tensor& b);
  SimResult conv1d_broadcast_fast(const tensor::Tensor& lines,
                                  const tensor::Tensor& kernels);

 private:
  ArrayConfig cfg_;
  SimBackend backend_;
};

}  // namespace fuse::systolic
