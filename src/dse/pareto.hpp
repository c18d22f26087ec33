// Pareto dominance over accelerator design points.
//
// The frontier logic used to live twice — examples/operator_search kept a
// per-operator argmin table and bench/bench_pareto picked per-column
// winners — and neither actually computed a dominance frontier. This
// module is now the single home: dominates() defines the partial order,
// ParetoFront maintains a frontier incrementally (the explorer offers
// every evaluated point and dominated ones are pruned as they arrive),
// and pareto_frontier() is the batch form for callers that already hold
// every objective vector.
//
// Determinism: ParetoFront keeps survivors in offer order and prunes by
// scanning existing entries in order, so offering points in index order
// yields a byte-identical frontier. The explorer offers each point in
// index order as soon as it is evaluated.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace fuse::dse {

/// One candidate's objective vector. Every axis is minimized.
struct Objectives {
  double latency_ms = 0.0;
  double area_mm2 = 0.0;
  double power_w = 0.0;

  std::array<double, 3> axes() const {
    return {latency_ms, area_mm2, power_w};
  }
};

/// Strict Pareto dominance: a is no worse on every axis AND strictly
/// better on at least one. Exactly-equal points do NOT dominate each
/// other (both survive — they are distinct designs with identical cost).
bool dominates(const Objectives& a, const Objectives& b);

/// A frontier member: `id` is the caller's index for the point (the
/// explorer uses the design-point index), kept so the frontier can be
/// traced back to configurations.
struct ParetoEntry {
  std::size_t id = 0;
  Objectives obj;
};

/// Incremental Pareto frontier. offer() either rejects a dominated
/// candidate or admits it and evicts the members it dominates; pruned()
/// counts both kinds of casualties.
class ParetoFront {
 public:
  /// Returns true when the point joined the frontier.
  bool offer(std::size_t id, const Objectives& obj);

  const std::vector<ParetoEntry>& entries() const { return entries_; }
  std::uint64_t pruned() const { return pruned_; }

 private:
  std::vector<ParetoEntry> entries_;
  std::uint64_t pruned_ = 0;
};

/// Batch form: indices (ascending) of the non-dominated points.
std::vector<std::size_t> pareto_frontier(
    const std::vector<Objectives>& objectives);

}  // namespace fuse::dse
