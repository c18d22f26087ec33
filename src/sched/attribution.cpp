#include "sched/attribution.hpp"

#include <fstream>
#include <ostream>

#include "util/check.hpp"
#include "util/strings.hpp"
#include "util/trace_sink.hpp"

namespace fuse::sched {

using systolic::ArrayConfig;
using systolic::PrimitiveOp;

CycleSplit decompose_primitive(const PrimitiveOp& op,
                               const ArrayConfig& cfg) {
  const systolic::LatencyEstimate total = op.total();
  CycleSplit split;
  split.compute =
      total.folds *
      static_cast<std::uint64_t>(systolic::fold_stream_cycles(op, cfg));
  FUSE_CHECK(split.compute <= total.cycles)
      << "the stream windows of " << primitive_kind_name(op.kind) << " ("
      << split.compute << " cycles) exceed its analytic " << total.cycles
      << " cycles";
  split.fill_drain = total.cycles - split.compute;
  return split;
}

AttributionReport attribute_network(const NetworkPlan& plan,
                                    const nets::NetworkModel& model) {
  FUSE_CHECK(plan.layer_plans.size() == model.layers.size())
      << "attribution needs the plan built from this model";
  AttributionReport report;
  report.mode = plan.mode;
  report.cfg = plan.cfg;
  report.mem = plan.mem;
  report.network = model.name;

  const std::uint64_t pe_count =
      static_cast<std::uint64_t>(plan.cfg.pe_count());

  // --- per-layer time + PE decomposition -------------------------------------
  report.layers.reserve(plan.on_array.size());
  for (const std::size_t idx : plan.on_array) {
    const systolic::LatencyEstimate& est = plan.layer_latency[idx];
    LayerAttribution la;
    la.layer_index = idx;
    la.name = model.layers[idx].name;
    la.op_class = classify_layer(model.layers[idx]);
    la.cycles = est.cycles;
    la.mac_ops = est.mac_ops;
    la.folds = est.folds;
    for (const PrimitiveOp& op : plan.layer_plans[idx].ops) {
      la.split += decompose_primitive(op, plan.cfg);
    }
    FUSE_CHECK(la.split.total() == est.cycles)
        << "layer '" << la.name << "' attribution (" << la.split.compute
        << " + " << la.split.fill_drain << ") != analytic latency "
        << est.cycles;
    la.pe_total = est.cycles * pe_count;
    la.pe_busy = est.mac_ops;
    const std::uint64_t pe_compute = la.split.compute * pe_count;
    FUSE_CHECK(pe_compute >= la.pe_busy)
        << "layer '" << la.name
        << "' performs more MACs than its compute windows allow";
    la.pe_idle_geometry = pe_compute - la.pe_busy;
    la.pe_idle_fill_drain = la.split.fill_drain * pe_count;
    const systolic::TrafficEstimate& traffic = plan.layer_traffic[idx];
    la.dram_bytes = traffic.total_bytes();
    la.memory_cycles = traffic.memory_cycles(plan.mem);

    report.total_cycles += la.cycles;
    report.total_split += la.split;
    report.pe_total += la.pe_total;
    report.pe_busy += la.pe_busy;
    report.pe_idle_geometry += la.pe_idle_geometry;
    report.pe_idle_fill_drain += la.pe_idle_fill_drain;
    report.by_class[static_cast<int>(la.op_class)] += la.split;
    report.layers.push_back(std::move(la));
  }
  FUSE_CHECK(report.total_cycles == plan.total_cycles)
      << "attributed layer cycles " << report.total_cycles
      << " != schedule total " << plan.total_cycles;
  FUSE_CHECK(report.total_split.total() == plan.total_cycles)
      << "attribution categories do not sum to the schedule total";
  FUSE_CHECK(report.pe_busy + report.pe_idle_geometry +
                 report.pe_idle_fill_drain ==
             report.pe_total)
      << "PE-cycle attribution does not sum to cycles x PEs";

  // --- roofline scheduling units (mirrors plan_roofline's walk) --------------
  std::size_t next = 0;  // the group at or after the current layer
  for (std::size_t i = 0; i < plan.layer_latency.size(); ++i) {
    const FusedPair* pair =
        next < plan.fused_pairs.size() ? &plan.fused_pairs[next] : nullptr;
    if (pair != nullptr && (i == pair->producer2 || i == pair->consumer)) {
      if (i == pair->consumer) {
        ++next;
      }
      continue;  // charged with the group's producer
    }
    UnitAttribution unit;
    unit.layer_indices.push_back(i);
    unit.name = model.layers[i].name;
    unit.compute_cycles = plan.layer_latency[i].cycles;
    systolic::TrafficEstimate traffic = plan.layer_traffic[i];
    if (pair != nullptr && pair->producer == i) {
      unit.fused = true;
      if (pair->producer2 != FusedPair::kNone) {
        unit.layer_indices.push_back(pair->producer2);
        unit.compute_cycles += plan.layer_latency[pair->producer2].cycles;
        traffic += plan.layer_traffic[pair->producer2];
      }
      unit.layer_indices.push_back(pair->consumer);
      unit.compute_cycles += plan.layer_latency[pair->consumer].cycles;
      traffic.output_bytes -= pair->saved_output_bytes;
      traffic += plan.layer_traffic[pair->consumer];
      traffic.input_bytes -= pair->saved_input_bytes;
      unit.name += " +" + std::to_string(unit.layer_indices.size() - 1);
    }
    unit.memory_cycles = traffic.memory_cycles(plan.mem);
    unit.dram_bytes = traffic.total_bytes();
    unit.dram_stall_cycles = unit.memory_cycles > unit.compute_cycles
                                 ? unit.memory_cycles - unit.compute_cycles
                                 : 0;
    unit.bound_cycles = unit.compute_cycles + unit.dram_stall_cycles;
    unit.memory_bound =
        unit.memory_cycles > unit.compute_cycles && unit.compute_cycles > 0;
    report.total_dram_stall += unit.dram_stall_cycles;
    report.bound_cycles += unit.bound_cycles;
    if (unit.bound_cycles > 0) {  // glue layers contribute nothing
      report.units.push_back(std::move(unit));
    }
  }
  const NetworkRoofline roofline = plan_roofline(plan);
  FUSE_CHECK(report.bound_cycles == roofline.bound_cycles)
      << "attributed roofline bound " << report.bound_cycles
      << " != plan_roofline " << roofline.bound_cycles;
  FUSE_CHECK(report.bound_cycles ==
             report.total_cycles + report.total_dram_stall)
      << "DRAM stall attribution does not close the roofline gap";

  // --- per-segment shares of the layer decompositions ------------------------
  // A segment that holds only some of a layer's folds (the fused
  // interleaver's stripes) streams for the layer's single op's window per
  // fold; a segment holding all of them takes the layer's split.
  std::vector<CycleSplit> segment_sums(plan.layer_plans.size());
  report.segments.resize(plan.segments.size());
  for (std::size_t s = 0; s < plan.segments.size(); ++s) {
    const ScheduleSegment& seg = plan.segments[s];
    const systolic::MappingPlan& layer_plan = plan.layer_plans[seg.layer_index];
    SegmentAttribution& sa = report.segments[s];
    sa.segment_index = s;
    sa.layer_index = seg.layer_index;
    if (seg.folds == plan.layer_latency[seg.layer_index].folds) {
      for (const PrimitiveOp& op : layer_plan.ops) {
        sa.split += decompose_primitive(op, plan.cfg);
      }
    } else {
      FUSE_CHECK(layer_plan.ops.size() == 1)
          << "layer '" << model.layers[seg.layer_index].name
          << "' is split across segments but lowers to "
          << layer_plan.ops.size() << " primitives";
      sa.split.compute =
          seg.folds * static_cast<std::uint64_t>(systolic::fold_stream_cycles(
                          layer_plan.ops.front(), plan.cfg));
    }
    FUSE_CHECK(sa.split.compute <= seg.duration())
        << "segment " << s << " of '" << model.layers[seg.layer_index].name
        << "' streams longer than it lasts";
    sa.split.fill_drain = seg.duration() - sa.split.compute;
    segment_sums[seg.layer_index] += sa.split;
  }
  // The segment shares reproduce each layer's own decomposition exactly.
  for (const LayerAttribution& la : report.layers) {
    const CycleSplit& sum = segment_sums[la.layer_index];
    FUSE_CHECK(sum.compute == la.split.compute &&
               sum.fill_drain == la.split.fill_drain)
        << "segment attribution of '" << la.name
        << "' does not sum to its layer split";
  }
  return report;
}

namespace {

void write_split_fields(std::ostream& out, const CycleSplit& split) {
  out << "\"compute_cycles\": " << split.compute
      << ", \"fill_drain_cycles\": " << split.fill_drain;
}

}  // namespace

void write_attribution_json(std::ostream& out,
                            const AttributionReport& report) {
  out << "{\n  \"schema\": 1,\n";
  out << "  \"network\": \"" << util::json_escape(report.network)
      << "\",\n";
  out << "  \"sched_mode\": \"" << sched_mode_name(report.mode) << "\",\n";
  out << "  \"array\": \"" << util::json_escape(report.cfg.to_string())
      << "\",\n";
  out << "  \"dataflow\": \"" << systolic::dataflow_name(report.cfg.dataflow)
      << "\",\n";
  out << "  \"dram_bytes_per_cycle\": "
      << util::fixed(report.mem.dram_bytes_per_cycle, 2) << ",\n";
  out << "  \"layers\": [";
  for (std::size_t i = 0; i < report.layers.size(); ++i) {
    const LayerAttribution& la = report.layers[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
        << util::json_escape(la.name) << "\", \"class\": \""
        << operator_class_name(la.op_class) << "\", \"cycles\": "
        << la.cycles << ", ";
    write_split_fields(out, la.split);
    out << ", \"mac_ops\": " << la.mac_ops << ", \"folds\": " << la.folds
        << ", \"pe_busy\": " << la.pe_busy
        << ", \"pe_idle_geometry\": " << la.pe_idle_geometry
        << ", \"pe_idle_fill_drain\": " << la.pe_idle_fill_drain
        << ", \"dram_bytes\": " << la.dram_bytes
        << ", \"memory_cycles\": " << la.memory_cycles
        << ", \"occupancy\": " << util::fixed(la.occupancy(), 6)
        << ", \"operational_intensity\": "
        << util::fixed(la.operational_intensity(), 4)
        << ", \"cycles_per_mac\": " << util::fixed(la.cycles_per_mac(), 6)
        << "}";
  }
  out << (report.layers.empty() ? "" : "\n  ") << "],\n";
  out << "  \"units\": [";
  for (std::size_t i = 0; i < report.units.size(); ++i) {
    const UnitAttribution& unit = report.units[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
        << util::json_escape(unit.name) << "\", \"fused\": "
        << (unit.fused ? "true" : "false")
        << ", \"compute_cycles\": " << unit.compute_cycles
        << ", \"memory_cycles\": " << unit.memory_cycles
        << ", \"dram_stall_cycles\": " << unit.dram_stall_cycles
        << ", \"bound_cycles\": " << unit.bound_cycles
        << ", \"dram_bytes\": " << unit.dram_bytes << ", \"memory_bound\": "
        << (unit.memory_bound ? "true" : "false") << "}";
  }
  out << (report.units.empty() ? "" : "\n  ") << "],\n";
  out << "  \"totals\": {\"cycles\": " << report.total_cycles << ", ";
  write_split_fields(out, report.total_split);
  out << ", \"dram_stall_cycles\": " << report.total_dram_stall
      << ", \"bound_cycles\": " << report.bound_cycles
      << ", \"pe_busy\": " << report.pe_busy
      << ", \"pe_idle_geometry\": " << report.pe_idle_geometry
      << ", \"pe_idle_fill_drain\": " << report.pe_idle_fill_drain
      << ", \"occupancy\": " << util::fixed(report.occupancy(), 6)
      << "},\n";
  out << "  \"by_class\": {";
  for (int cls = 0; cls < 5; ++cls) {
    out << (cls == 0 ? "\n" : ",\n") << "    \""
        << operator_class_name(static_cast<OperatorClass>(cls)) << "\": {";
    write_split_fields(out, report.by_class[cls]);
    out << "}";
  }
  out << "\n  }\n}\n";
}

void write_attribution_json_file(const std::string& path,
                                 const AttributionReport& report) {
  std::ofstream out(path);
  FUSE_CHECK(out.good()) << "cannot open attribution output file " << path;
  write_attribution_json(out, report);
}

}  // namespace fuse::sched
