// Bottleneck attribution: an exact decomposition of every cycle the
// analytic model charges, over a NetworkPlan.
//
// The paper's argument is not "FuSeConv is faster" but *why*: depthwise
// layers occupy one array column while FuSe 1-D lines fill both array
// dimensions (§III-B vs §IV-C). This module turns that argument into an
// instrument. Every layer's analytic latency splits into
//
//   cycles = compute_cycles     // the MAC-streaming window of each fold
//          + fill_drain_cycles  // wavefront skew, preload, drain
//
// and every PE-cycle of the array splits into
//
//   cycles * pe_count = pe_busy              // useful MACs (1 MAC/PE/cy)
//                     + pe_idle_geometry     // idle PEs *during* compute
//                                            // windows: edge tiles, the
//                                            // depthwise single-column
//                                            // pathology
//                     + pe_idle_fill_drain   // whole-array dead time
//
// both identities FUSE_CHECKed per layer and summed per network. On top,
// the roofline view charges each scheduling unit (a layer, or a fused
// producer->pointwise group under SchedMode::kFused) a DRAM stall of
// max(0, memory_cycles - compute) so
//
//   sum(unit cycles + unit dram_stall) == plan_roofline(plan).bound_cycles
//
// exactly. Per-layer roofline points (operational intensity in MACs/byte
// vs attained cycles/MAC) ride along for plotting.
//
// The decomposition needs no fold walk of its own: every fold of a
// primitive streams MACs for the same window (T on OS, M on WS, N on IS,
// the taps of a broadcast line — systolic::fold_stream_cycles), so a
// primitive's compute is folds x window and its fill/drain is the rest of
// the cycles the cycle model priced. A schedule segment splits the same
// way over its own folds and duration. Nothing here records metrics or
// mutates process state.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sched/latency.hpp"
#include "sched/netplan.hpp"
#include "systolic/mapping.hpp"

namespace fuse::sched {

/// The two time components of one primitive, schedule segment, or layer.
struct CycleSplit {
  std::uint64_t compute = 0;     // MAC-streaming window
  std::uint64_t fill_drain = 0;  // wavefront skew + preload + drain

  std::uint64_t total() const { return compute + fill_drain; }
  CycleSplit& operator+=(const CycleSplit& other) {
    compute += other.compute;
    fill_drain += other.fill_drain;
    return *this;
  }
};

/// The split of one primitive: compute = op.total().folds x
/// systolic::fold_stream_cycles(op, cfg), fill_drain = the rest of
/// op.total().cycles.
CycleSplit decompose_primitive(const systolic::PrimitiveOp& op,
                               const systolic::ArrayConfig& cfg);

/// One on-array layer's attribution row.
struct LayerAttribution {
  std::size_t layer_index = 0;  // into model.layers
  std::string name;
  OperatorClass op_class = OperatorClass::kStandardConv;

  // Time decomposition (cycles == compute + fill_drain, FUSE_CHECKed).
  std::uint64_t cycles = 0;
  CycleSplit split;

  // PE-cycle decomposition (busy + idle_geometry + idle_fill_drain ==
  // pe_total, exact by construction, FUSE_CHECKed).
  std::uint64_t pe_total = 0;
  std::uint64_t pe_busy = 0;           // == mac_ops
  std::uint64_t pe_idle_geometry = 0;  // idle PEs inside compute windows
  std::uint64_t pe_idle_fill_drain = 0;

  // Roofline point.
  std::uint64_t mac_ops = 0;
  std::uint64_t folds = 0;
  std::uint64_t dram_bytes = 0;
  std::uint64_t memory_cycles = 0;

  /// Busy fraction of all PE-cycles, in [0, 1].
  double occupancy() const {
    return pe_total == 0 ? 0.0
                         : static_cast<double>(pe_busy) /
                               static_cast<double>(pe_total);
  }
  /// MACs per DRAM byte (the roofline x axis).
  double operational_intensity() const {
    return dram_bytes == 0 ? 0.0
                           : static_cast<double>(mac_ops) /
                                 static_cast<double>(dram_bytes);
  }
  /// Attained cycles per MAC under the roofline bound (the y axis; lower
  /// is better, 1/pe_count is the array's peak).
  double cycles_per_mac() const {
    const std::uint64_t bound =
        cycles > memory_cycles ? cycles : memory_cycles;
    return mac_ops == 0 ? 0.0
                        : static_cast<double>(bound) /
                              static_cast<double>(mac_ops);
  }
};

/// One roofline scheduling unit: a single layer in per-layer mode, a fused
/// producer(s)->consumer group in fused mode. Mirrors plan_roofline's
/// walk; sum(bound_cycles) over units == plan_roofline(plan).bound_cycles.
struct UnitAttribution {
  std::vector<std::size_t> layer_indices;  // into model.layers
  std::string name;                        // lead layer (+N for groups)
  bool fused = false;

  std::uint64_t compute_cycles = 0;  // sum of member analytic latencies
  std::uint64_t memory_cycles = 0;   // reduced traffic under fusion
  std::uint64_t dram_stall_cycles = 0;  // max(0, memory - compute)
  std::uint64_t bound_cycles = 0;       // compute + dram_stall
  std::uint64_t dram_bytes = 0;
  bool memory_bound = false;
};

/// One schedule segment's share of its layer's decomposition: compute is
/// the segment's fold count times the layer's stream window, fill/drain
/// the rest of the segment's duration — exact whichever of the layer's
/// folds the fused interleaver put in it. A segment's split sums to its
/// duration, and a layer's segments sum to the layer's split (both
/// FUSE_CHECKed) — the per-fused-segment view of the fused schedule's
/// interleaving.
struct SegmentAttribution {
  std::size_t segment_index = 0;  // into plan.segments
  std::size_t layer_index = 0;
  CycleSplit split;
  std::uint64_t mac_ops = 0;
};

/// The whole-network attribution.
struct AttributionReport {
  SchedMode mode = SchedMode::kPerLayer;
  systolic::ArrayConfig cfg;
  systolic::MemoryConfig mem;
  std::string network;

  std::vector<LayerAttribution> layers;     // on-array layers only
  std::vector<UnitAttribution> units;       // roofline scheduling units
  std::vector<SegmentAttribution> segments; // parallel to plan.segments

  // Network totals (each FUSE_CHECKed against the plan it came from).
  std::uint64_t total_cycles = 0;        // == plan.total_cycles
  CycleSplit total_split;                // components of total_cycles
  std::uint64_t total_dram_stall = 0;    // sum over units
  std::uint64_t bound_cycles = 0;        // == plan_roofline(plan).bound
  std::uint64_t pe_total = 0;
  std::uint64_t pe_busy = 0;
  std::uint64_t pe_idle_geometry = 0;
  std::uint64_t pe_idle_fill_drain = 0;

  /// Cycles per attributed category aggregated by operator class
  /// (index with static_cast<int>(OperatorClass)).
  CycleSplit by_class[5];

  double occupancy() const {
    return pe_total == 0 ? 0.0
                         : static_cast<double>(pe_busy) /
                               static_cast<double>(pe_total);
  }
};

/// Builds the full attribution over an already-built schedule. Pure: no
/// metrics, no process state. Every decomposition identity is
/// FUSE_CHECKed against the plan's own latency/roofline numbers.
AttributionReport attribute_network(const NetworkPlan& plan,
                                    const nets::NetworkModel& model);

/// Serializes the report as one JSON document: {"schema": 1, "layers":
/// [...], "units": [...], "totals": {...}}. Stable field order, valid
/// JSON (parse-back pinned in tests and tools/check.sh).
void write_attribution_json(std::ostream& out,
                            const AttributionReport& report);
void write_attribution_json_file(const std::string& path,
                                 const AttributionReport& report);

}  // namespace fuse::sched
