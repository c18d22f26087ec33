#include "sched/timeline.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace fuse::sched {

Timeline plan_timeline(const NetworkPlan& plan,
                       const NetworkModel& model) {
  Timeline timeline;
  // Schedule segments are contiguous and in execution order, and the
  // fused groups come in the same order; a group's alternating segments
  // collapse into one merged entry.
  std::size_t i = 0;
  std::size_t next = 0;  // the next fused group
  while (i < plan.segments.size()) {
    const ScheduleSegment& first = plan.segments[i];
    const FusedPair* pair = nullptr;
    if (first.fused) {
      FUSE_CHECK(next < plan.fused_pairs.size())
          << "fused segment of layer " << first.layer_index
          << " past the plan's " << plan.fused_pairs.size() << " groups";
      pair = &plan.fused_pairs[next++];
    }
    TimelineEntry entry;
    entry.start_cycle = first.start_cycle;
    if (pair == nullptr) {
      const nn::LayerDesc& layer = model.layers[first.layer_index];
      entry.layer_index = first.layer_index;
      entry.name = layer.name;
      entry.kind = layer.kind;
      entry.end_cycle = first.end_cycle;
      entry.utilization = plan.layer_latency[first.layer_index].utilization();
      ++i;
    } else {
      // Consume every segment of this group (they are contiguous).
      std::uint64_t end = first.end_cycle;
      while (i < plan.segments.size() && plan.segments[i].fused &&
             (plan.segments[i].layer_index == pair->producer ||
              plan.segments[i].layer_index == pair->producer2 ||
              plan.segments[i].layer_index == pair->consumer)) {
        end = plan.segments[i].end_cycle;
        ++i;
      }
      const nn::LayerDesc& producer = model.layers[pair->producer];
      const nn::LayerDesc& consumer = model.layers[pair->consumer];
      LatencyEstimate combined = plan.layer_latency[pair->producer];
      entry.name = producer.name;
      if (pair->producer2 != FusedPair::kNone) {
        combined += plan.layer_latency[pair->producer2];
        entry.name += "+" + model.layers[pair->producer2].name;
      }
      combined += plan.layer_latency[pair->consumer];
      entry.layer_index = pair->producer;
      entry.name += "+" + consumer.name;
      entry.kind = consumer.kind;
      entry.end_cycle = end;
      entry.utilization = combined.utilization();
    }
    timeline.entries.push_back(std::move(entry));
  }
  timeline.total_cycles = plan.total_cycles;
  return timeline;
}

void write_timeline_csv(const Timeline& timeline, const std::string& path) {
  util::CsvWriter csv(path);
  csv.write_header(
      {"layer", "kind", "start_cycle", "end_cycle", "cycles", "util"});
  for (const TimelineEntry& entry : timeline.entries) {
    csv.write_row({entry.name, nn::op_kind_name(entry.kind),
                   std::to_string(entry.start_cycle),
                   std::to_string(entry.end_cycle),
                   std::to_string(entry.duration()),
                   util::fixed(entry.utilization, 4)});
  }
}

std::string ascii_gantt(const Timeline& timeline, int width) {
  FUSE_CHECK(width >= 16) << "gantt width too small: " << width;
  std::ostringstream out;
  if (timeline.total_cycles == 0) {
    return "(empty timeline)\n";
  }
  // Longest label for alignment, truncated to keep lines compact.
  std::size_t label_width = 0;
  for (const TimelineEntry& entry : timeline.entries) {
    label_width = std::max(label_width, entry.name.size());
  }
  label_width = std::min<std::size_t>(label_width, 36);

  for (const TimelineEntry& entry : timeline.entries) {
    std::string label = entry.name;
    if (label.size() > label_width) {
      label = "..." + label.substr(label.size() - (label_width - 3));
    }
    const double share = static_cast<double>(entry.duration()) /
                         static_cast<double>(timeline.total_cycles);
    const int bar = std::max(1, static_cast<int>(share * width + 0.5));
    out << label << std::string(label_width - label.size(), ' ') << " |"
        << std::string(static_cast<std::size_t>(bar), '#') << " "
        << util::fixed(100.0 * share, 1) << "% ("
        << nn::op_kind_name(entry.kind) << ", util "
        << util::fixed(100.0 * entry.utilization, 1) << "%)\n";
  }
  out << std::string(label_width, ' ') << " total "
      << util::with_commas(timeline.total_cycles) << " cycles\n";
  return out.str();
}

}  // namespace fuse::sched
