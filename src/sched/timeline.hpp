// Execution timeline: when each layer occupies the array.
//
// SCALE-Sim's hallmark output is a cycle-accurate trace; this is the
// layer-granularity equivalent for our model. Layers run back-to-back (the
// array processes one operator at a time, per the paper's methodology), so
// the timeline is a contiguous sequence of [start, end) intervals that
// tests check against network_latency. Besides CSV export, an ASCII Gantt
// rendering makes the "depthwise layers own the machine" pathology visible
// at a glance.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/latency.hpp"
#include "sched/netplan.hpp"

namespace fuse::sched {

struct TimelineEntry {
  std::size_t layer_index = 0;  // into model.layers
  std::string name;
  nn::OpKind kind = nn::OpKind::kStandardConv;
  std::uint64_t start_cycle = 0;
  std::uint64_t end_cycle = 0;  // exclusive
  double utilization = 0.0;

  std::uint64_t duration() const { return end_cycle - start_cycle; }
};

struct Timeline {
  std::vector<TimelineEntry> entries;  // latency-bearing layers only
  std::uint64_t total_cycles = 0;
};

/// Timeline view of a NetworkPlan. Per-layer plans give one entry per
/// latency-bearing layer; fused plans
/// merge each fused pair into ONE entry spanning the interleaved region,
/// named "producer+consumer" and carrying the consumer's kind, with the
/// pair's combined utilization.
Timeline plan_timeline(const NetworkPlan& plan, const NetworkModel& model);

/// Writes the timeline as CSV (layer, kind, start, end, cycles, util).
void write_timeline_csv(const Timeline& timeline, const std::string& path);

/// Renders an ASCII Gantt chart `width` characters wide. Each entry is a
/// bar of '#' proportional to its share of total cycles (minimum one
/// character), labelled with the layer kind.
std::string ascii_gantt(const Timeline& timeline, int width = 72);

}  // namespace fuse::sched
