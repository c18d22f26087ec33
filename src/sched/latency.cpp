#include "sched/latency.hpp"

#include <algorithm>
#include <map>

#include "sched/eval_fast.hpp"
#include "sched/netplan.hpp"
#include "systolic/mapping.hpp"
#include "util/check.hpp"
#include "util/telemetry.hpp"

namespace fuse::sched {

using nn::OpKind;

namespace {

/// Closed-form layer latency. Latency never reads the memory config, so
/// the default one serves every caller.
LatencyEstimate fast_layer_latency(const LayerDesc& layer,
                                   const ArrayConfig& cfg) {
  return eval_layer_fast(layer, cfg, systolic::MemoryConfig{}).latency;
}

/// PE-occupancy accounting for one evaluated layer, derived from its
/// MappingPlan fold: busy PE-cycles are exactly the useful MACs (one MAC
/// per PE per cycle), total PE-cycles are cycles x array PEs. These are
/// the registry-side numbers behind --stats-json. They tick on the plan
/// path only (layer_latency / plan_latency), not in network_latency.
void record_layer_metrics(const LatencyEstimate& est) {
  static util::Counter& layers = util::metrics().counter("sched.layers");
  static util::Counter& macs = util::metrics().counter("sched.macs");
  static util::Counter& folds = util::metrics().counter("sched.folds");
  static util::Counter& pe_busy =
      util::metrics().counter("sched.pe_cycles_busy");
  static util::Counter& pe_total =
      util::metrics().counter("sched.pe_cycles_total");
  static util::Histogram& cycles =
      util::metrics().histogram("sched.layer_cycles");
  layers.add();
  macs.add(est.mac_ops);
  folds.add(est.folds);
  pe_busy.add(est.mac_ops);
  pe_total.add(est.cycles * static_cast<std::uint64_t>(est.pe_count));
  cycles.observe(est.cycles);
}

}  // namespace

LatencyEstimate layer_latency(const LayerDesc& layer,
                              const ArrayConfig& cfg) {
  // All per-OpKind mapping decisions live in systolic::lower(); this is
  // just a fold over the resulting primitive ops.
  return plan_latency(systolic::lower(layer, cfg));
}

LatencyEstimate plan_latency(const systolic::MappingPlan& plan) {
  const LatencyEstimate est = plan.total_latency();
  record_layer_metrics(est);
  return est;
}

std::uint64_t network_bound_batched(const NetworkModel& model,
                                    const ArrayConfig& cfg,
                                    const systolic::MemoryConfig& mem,
                                    std::int64_t batch) {
  std::uint64_t total = 0;
  for (const LayerDesc& layer : model.layers) {
    const LayerCost cost = eval_layer_fast(layer, cfg, mem, batch);
    total += std::max(cost.latency.cycles, cost.traffic.memory_cycles(mem));
  }
  return total;
}

double NetworkLatency::utilization(const ArrayConfig& cfg) const {
  std::uint64_t macs = 0;
  for (const LatencyEstimate& est : per_layer) {
    macs += est.mac_ops;
  }
  if (total_cycles == 0) {
    return 0.0;
  }
  return static_cast<double>(macs) /
         (static_cast<double>(total_cycles) *
          static_cast<double>(cfg.pe_count()));
}

NetworkLatency network_latency(const NetworkModel& model,
                               const ArrayConfig& cfg) {
  NetworkLatency result;
  result.per_layer.reserve(model.layers.size());
  for (const LayerDesc& layer : model.layers) {
    const LatencyEstimate est = fast_layer_latency(layer, cfg);
    result.total_cycles += est.cycles;
    result.per_layer.push_back(est);
  }
  return result;
}

std::string operator_class_name(OperatorClass cls) {
  switch (cls) {
    case OperatorClass::kStandardConv:
      return "standard-conv";
    case OperatorClass::kDepthwise:
      return "depthwise";
    case OperatorClass::kPointwise:
      return "pointwise";
    case OperatorClass::kFuse:
      return "fuse";
    case OperatorClass::kFcAndSe:
      return "fc+se";
  }
  return "?";
}

OperatorClass classify_layer(const LayerDesc& layer) {
  switch (layer.kind) {
    case OpKind::kStandardConv:
    case OpKind::kGroupedConv:
      return OperatorClass::kStandardConv;
    case OpKind::kDepthwiseConv:
      return OperatorClass::kDepthwise;
    case OpKind::kPointwiseConv:
      return OperatorClass::kPointwise;
    case OpKind::kFuseRowConv:
    case OpKind::kFuseColConv:
      return OperatorClass::kFuse;
    case OpKind::kFullyConnected:
    default:
      return OperatorClass::kFcAndSe;
  }
}

std::uint64_t OperatorBreakdown::total() const {
  std::uint64_t sum = 0;
  for (std::uint64_t c : cycles) {
    sum += c;
  }
  return sum;
}

double OperatorBreakdown::fraction(OperatorClass cls) const {
  const std::uint64_t sum = total();
  if (sum == 0) {
    return 0.0;
  }
  return static_cast<double>(of(cls)) / static_cast<double>(sum);
}

OperatorBreakdown operator_breakdown(const NetworkModel& model,
                                     const ArrayConfig& cfg) {
  OperatorBreakdown breakdown;
  for (const LayerDesc& layer : model.layers) {
    if (!layer.counts_for_latency()) {
      continue;
    }
    breakdown.cycles[static_cast<int>(classify_layer(layer))] +=
        fast_layer_latency(layer, cfg).cycles;
  }
  return breakdown;
}

std::map<int, std::uint64_t> cycles_by_slot(const NetworkModel& model,
                                            const ArrayConfig& cfg) {
  std::map<int, std::uint64_t> by_slot;
  for (const LayerDesc& layer : model.layers) {
    if (layer.fuse_slot < 0) {
      continue;
    }
    by_slot[layer.fuse_slot] += fast_layer_latency(layer, cfg).cycles;
  }
  return by_slot;
}

std::vector<double> slot_savings(NetworkId id, FuseMode mode,
                                 const ArrayConfig& cfg) {
  FUSE_CHECK(mode != FuseMode::kBaseline)
      << "slot_savings needs a replacing mode";
  const NetworkModel baseline = nets::build_network(id);
  const NetworkModel fused = nets::build_network(
      id, core::uniform_modes(baseline.num_slots, mode));

  const auto base_slots = cycles_by_slot(baseline, cfg);
  const auto fused_slots = cycles_by_slot(fused, cfg);

  std::vector<double> savings(static_cast<std::size_t>(baseline.num_slots),
                              0.0);
  for (int slot = 0; slot < baseline.num_slots; ++slot) {
    const auto base_it = base_slots.find(slot);
    const auto fused_it = fused_slots.find(slot);
    FUSE_CHECK(base_it != base_slots.end() &&
               fused_it != fused_slots.end())
        << "slot " << slot << " missing from lowered network";
    savings[static_cast<std::size_t>(slot)] =
        static_cast<double>(base_it->second) -
        static_cast<double>(fused_it->second);
  }
  return savings;
}

VariantBuild build_variant(NetworkId id, NetworkVariant variant,
                           const ArrayConfig& cfg) {
  const int slots = nets::num_fuse_slots(id);
  std::vector<double> savings;
  if (variant == NetworkVariant::kFuseFull50) {
    savings = slot_savings(id, FuseMode::kFull, cfg);
  } else if (variant == NetworkVariant::kFuseHalf50) {
    savings = slot_savings(id, FuseMode::kHalf, cfg);
  }
  VariantBuild build;
  build.modes = core::modes_for_variant(variant, slots, savings);
  build.model = nets::build_network(id, build.modes);
  return build;
}

double speedup_vs_baseline(NetworkId id, NetworkVariant variant,
                           const ArrayConfig& cfg) {
  const VariantBuild baseline =
      build_variant(id, NetworkVariant::kBaseline, cfg);
  const VariantBuild target = build_variant(id, variant, cfg);
  const std::uint64_t base_cycles =
      network_latency(baseline.model, cfg).total_cycles;
  const std::uint64_t variant_cycles =
      network_latency(target.model, cfg).total_cycles;
  FUSE_CHECK(variant_cycles > 0) << "variant has zero latency";
  return static_cast<double>(base_cycles) /
         static_cast<double>(variant_cycles);
}

NetworkRoofline network_roofline(const NetworkModel& model,
                                 const ArrayConfig& cfg,
                                 const systolic::MemoryConfig& mem) {
  // Per-layer by definition: every layer pays its own load/flush
  // traffic. Fused bounds come from plan_network / eval_network_fast with
  // SchedMode::kFused.
  return eval_network_fast(model, cfg, mem, SchedMode::kPerLayer).roofline;
}

double roofline_speedup(NetworkId id, NetworkVariant variant,
                        const ArrayConfig& cfg,
                        const systolic::MemoryConfig& mem) {
  const VariantBuild baseline =
      build_variant(id, NetworkVariant::kBaseline, cfg);
  const VariantBuild target = build_variant(id, variant, cfg);
  const std::uint64_t base =
      network_roofline(baseline.model, cfg, mem).bound_cycles;
  const std::uint64_t var =
      network_roofline(target.model, cfg, mem).bound_cycles;
  FUSE_CHECK(var > 0) << "variant has zero roofline latency";
  return static_cast<double>(base) / static_cast<double>(var);
}

hw::EnergyReport network_energy(const NetworkModel& model,
                                const ArrayConfig& cfg,
                                const systolic::MemoryConfig& mem,
                                const hw::EnergyModel& energy) {
  hw::EnergyReport report;
  for (const LayerDesc& layer : model.layers) {
    const LayerCost cost = eval_layer_fast(layer, cfg, mem);
    report += hw::operator_energy(cost.latency.mac_ops, cost.latency.cycles,
                                  cfg.pe_count(), cost.traffic.total_bytes(),
                                  energy);
  }
  return report;
}

}  // namespace fuse::sched
