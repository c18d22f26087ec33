// Deterministic load generation for the serving engine.
//
// Two drive styles, both in the virtual cycle domain:
//   * OPEN loop — a pre-generated trace of arrivals replayed into the
//     engine regardless of its state (models independent users; the rate
//     is the experiment knob, latency the outcome). Inter-arrival gaps
//     are INTEGER uniform draws in [0, 2*mean] from util::Rng — not
//     exponential via log(), which is libm and not bit-portable — so the
//     trace, and every golden artifact derived from it, is byte-identical
//     across platforms.
//   * CLOSED loop — a fixed number of outstanding requests; each
//     completion immediately submits the next (models synchronous
//     clients; measures saturation throughput). The driver steps the
//     engine's own event clock via next_deadline.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/engine.hpp"
#include "serve/request.hpp"

namespace fuse::serve {

/// One scripted arrival.
struct TraceEntry {
  std::uint64_t arrival_cycle = 0;
  ShapeKey key;
  int batch_hint = 0;
};

/// A shape participating in a trace, weighted by `weight` (>= 1) relative
/// draws.
struct TraceShape {
  ShapeKey key;
  int batch_hint = 0;
  int weight = 1;
};

/// `count` arrivals with integer inter-arrival gaps uniform in
/// [0, 2*mean_gap] (mean = mean_gap) and shapes drawn by weight, all from
/// Rng(seed). Deterministic and bit-portable.
std::vector<TraceEntry> make_open_loop_trace(
    std::int64_t count, std::uint64_t mean_gap,
    const std::vector<TraceShape>& shapes, std::uint64_t seed,
    std::uint64_t start_cycle = 0);

/// Submits every entry (trace must be sorted by arrival — FUSE_CHECKed)
/// and returns the request ids. Does NOT drain.
std::vector<std::uint64_t> replay_trace(ServeEngine& engine,
                                        const std::vector<TraceEntry>& trace);

/// Closed-loop totals (the engine's stats() has the percentiles).
struct ClosedLoopResult {
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t makespan_cycles = 0;  // last reaped completion cycle
};

/// Keeps `concurrency` requests of one shape outstanding until `total`
/// were submitted, then drains. Each completion immediately submits its
/// replacement at the completion cycle — the saturation-throughput
/// experiment bench_serve sweeps.
ClosedLoopResult run_closed_loop(ServeEngine& engine, const ShapeKey& key,
                                 int batch_hint, int concurrency,
                                 std::int64_t total);

}  // namespace fuse::serve
