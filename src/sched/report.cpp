#include "sched/report.hpp"

#include <algorithm>
#include <map>

#include "util/check.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"

namespace fuse::sched {

std::vector<Table1Row> table1_rows(const ArrayConfig& cfg) {
  util::ScopedSpan span("sweep.table1_rows");
  std::vector<Table1Row> rows;
  for (const NetworkId id : nets::paper_networks()) {
    const std::size_t first = rows.size();
    std::uint64_t baseline_cycles = 0;
    for (const NetworkVariant variant : core::all_network_variants()) {
      const NetworkModel model = build_variant(id, variant, cfg).model;
      Table1Row row;
      row.network = id;
      row.variant = variant;
      row.macs = model.total_macs();
      row.params = model.total_params();
      row.cycles = network_latency(model, cfg).total_cycles;
      FUSE_CHECK(row.cycles > 0) << "zero-cycle network";
      if (variant == NetworkVariant::kBaseline) {
        baseline_cycles = row.cycles;
      }
      for (const auto& paper : nets::paper_table1(id)) {
        if (paper.variant == variant) {
          row.paper_accuracy = paper.imagenet_accuracy;
          row.paper_macs_millions = paper.macs_millions;
          row.paper_params_millions = paper.params_millions;
          row.paper_speedup = paper.speedup;
        }
      }
      rows.push_back(row);
    }
    for (std::size_t i = first; i < rows.size(); ++i) {
      rows[i].speedup = static_cast<double>(baseline_cycles) /
                        static_cast<double>(rows[i].cycles);
    }
  }
  return rows;
}

std::vector<SlotSpeedup> layerwise_speedup(NetworkId id, FuseMode mode,
                                           const ArrayConfig& cfg) {
  FUSE_CHECK(mode != FuseMode::kBaseline)
      << "layerwise_speedup needs a replacing mode";
  const NetworkModel baseline = nets::build_network(id);
  const NetworkModel fused = nets::build_network(
      id, core::uniform_modes(baseline.num_slots, mode));

  // Per-slot cycles of both networks, plus the baseline layer metadata.
  std::map<int, SlotSpeedup> slots;
  for (const auto& [slot, cycles] : cycles_by_slot(baseline, cfg)) {
    slots[slot].slot = slot;
    slots[slot].baseline_cycles = cycles;
  }
  for (const auto& [slot, cycles] : cycles_by_slot(fused, cfg)) {
    slots[slot].fused_cycles = cycles;
  }
  for (const nn::LayerDesc& layer : baseline.layers) {
    if (layer.fuse_slot >= 0 && layer.kind == nn::OpKind::kDepthwiseConv) {
      SlotSpeedup& s = slots[layer.fuse_slot];
      s.name = layer.name;
      s.in_h = layer.in_h;
      s.in_w = layer.in_w;
      s.channels = layer.in_c;
    }
  }

  std::vector<SlotSpeedup> result;
  result.reserve(slots.size());
  for (auto& [slot, s] : slots) {
    FUSE_CHECK(s.fused_cycles > 0) << "slot " << slot << " has zero cycles";
    s.speedup = static_cast<double>(s.baseline_cycles) /
                static_cast<double>(s.fused_cycles);
    result.push_back(s);
  }
  return result;
}

std::vector<ScalingPoint> scaling_sweep(
    NetworkId id, NetworkVariant variant,
    const std::vector<std::int64_t>& sizes) {
  // speedup_vs_baseline per size, with each network built once per call:
  // only the two 50% variants read the array (their slot choice follows
  // its savings), so only they are rebuilt at every size.
  const bool target_reads_array = variant == NetworkVariant::kFuseFull50 ||
                                  variant == NetworkVariant::kFuseHalf50;
  NetworkModel baseline;
  NetworkModel target;
  std::vector<ScalingPoint> points;
  points.reserve(sizes.size());
  for (const std::int64_t size : sizes) {
    util::ScopedSpan span("sweep.scaling_point");
    if (span.active()) {
      span.annotate("network", nets::network_name(id));
      span.annotate("array_size", static_cast<std::uint64_t>(size));
    }
    const ArrayConfig cfg = systolic::square_array(size);
    if (points.empty()) {
      baseline = build_variant(id, NetworkVariant::kBaseline, cfg).model;
    }
    if (points.empty() || target_reads_array) {
      target = build_variant(id, variant, cfg).model;
    }
    const std::uint64_t base_cycles =
        network_latency(baseline, cfg).total_cycles;
    const std::uint64_t variant_cycles =
        network_latency(target, cfg).total_cycles;
    FUSE_CHECK(variant_cycles > 0) << "variant has zero latency";
    points.push_back(ScalingPoint{
        size, static_cast<double>(base_cycles) /
                  static_cast<double>(variant_cycles)});
  }
  return points;
}

namespace {

std::string percent_of(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? "-"
                    : util::fixed(100.0 * static_cast<double>(part) /
                                      static_cast<double>(whole),
                                  1) + "%";
}

}  // namespace

util::TablePrinter attribution_layer_table(const AttributionReport& report,
                                           std::size_t top_n) {
  util::TablePrinter table({"layer", "class", "cycles", "compute",
                            "fill/drain", "occupancy", "macs/byte",
                            "cy/mac"});
  std::vector<const LayerAttribution*> rows;
  rows.reserve(report.layers.size());
  for (const LayerAttribution& la : report.layers) {
    rows.push_back(&la);
  }
  if (top_n > 0 && top_n < rows.size()) {
    std::stable_sort(rows.begin(), rows.end(),
                     [](const LayerAttribution* a, const LayerAttribution* b) {
                       return a->cycles > b->cycles;
                     });
    rows.resize(top_n);
  }
  for (const LayerAttribution* la : rows) {
    table.add_row({la->name, operator_class_name(la->op_class),
                   std::to_string(la->cycles),
                   percent_of(la->split.compute, la->cycles),
                   percent_of(la->split.fill_drain, la->cycles),
                   util::fixed(la->occupancy(), 3),
                   util::fixed(la->operational_intensity(), 2),
                   util::fixed(la->cycles_per_mac(), 4)});
  }
  table.add_separator();
  table.add_row({"total", "", std::to_string(report.total_cycles),
                 percent_of(report.total_split.compute, report.total_cycles),
                 percent_of(report.total_split.fill_drain,
                            report.total_cycles),
                 util::fixed(report.occupancy(), 3), "", ""});
  return table;
}

util::TablePrinter attribution_class_table(const AttributionReport& report) {
  util::TablePrinter table(
      {"class", "cycles", "share", "compute", "fill/drain"});
  for (int cls = 0; cls < 5; ++cls) {
    const CycleSplit& split = report.by_class[cls];
    if (split.total() == 0) {
      continue;
    }
    table.add_row({operator_class_name(static_cast<OperatorClass>(cls)),
                   std::to_string(split.total()),
                   percent_of(split.total(), report.total_cycles),
                   percent_of(split.compute, split.total()),
                   percent_of(split.fill_drain, split.total())});
  }
  table.add_separator();
  table.add_row({"total", std::to_string(report.total_cycles), "100.0%",
                 percent_of(report.total_split.compute, report.total_cycles),
                 percent_of(report.total_split.fill_drain,
                            report.total_cycles)});
  return table;
}

util::TablePrinter attribution_unit_table(const AttributionReport& report) {
  util::TablePrinter table({"unit", "compute", "memory", "dram stall",
                            "bound", "dram bytes", "bound by"});
  for (const UnitAttribution& unit : report.units) {
    table.add_row({unit.name, std::to_string(unit.compute_cycles),
                   std::to_string(unit.memory_cycles),
                   std::to_string(unit.dram_stall_cycles),
                   std::to_string(unit.bound_cycles),
                   util::format_bytes(unit.dram_bytes),
                   unit.memory_bound ? "memory" : "compute"});
  }
  table.add_separator();
  table.add_row({"total", std::to_string(report.total_cycles), "",
                 std::to_string(report.total_dram_stall),
                 std::to_string(report.bound_cycles), "", ""});
  return table;
}

}  // namespace fuse::sched
