// Network -> systolic-array latency estimation (paper §V-A3).
//
// Every cost here except one comes from the closed-form evaluator
// (sched/eval_fast.hpp), which returns what folding the layer's
// MappingPlan (systolic/mapping.hpp holds the per-kind mapping rules)
// would, without building the plan. The exception is layer_latency /
// plan_latency, the plan fold itself: the oracle the closed form is tested
// against, and the cost of a plan the scheduler has already lowered.
// Pool/activation/add layers cost zero cycles: the paper considers only
// compute-bound convolutional (incl. squeeze-excite) and FC layers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/transform.hpp"
#include "hw/energy.hpp"
#include "nets/zoo.hpp"
#include "nn/layer.hpp"
#include "systolic/config.hpp"
#include "systolic/cycle_model.hpp"
#include "systolic/mapping.hpp"
#include "systolic/memory.hpp"

namespace fuse::sched {

using core::FuseMode;
using core::NetworkVariant;
using nets::NetworkId;
using nets::NetworkModel;
using nn::LayerDesc;
using systolic::ArrayConfig;
using systolic::LatencyEstimate;

/// Cycles (and fold/MAC/utilization accounting) for one layer (batch 1,
/// the paper's setting), folded over the layer's MappingPlan. Pure
/// function of the layer geometry and the array config; the oracle the
/// closed-form network_latency below is tested against.
LatencyEstimate layer_latency(const LayerDesc& layer,
                              const ArrayConfig& cfg);

/// The estimate of an already-lowered plan, recording the same per-layer
/// sched.* metrics layer_latency would — layer_latency(l, cfg) is exactly
/// plan_latency(systolic::lower(l, cfg)). The network scheduler
/// (netplan.hpp) lowers each layer once and costs it through this, so the
/// telemetry deltas per evaluated layer are identical on both paths.
LatencyEstimate plan_latency(const systolic::MappingPlan& plan);

/// Whole-network batched roofline bound: per layer, the larger of the
/// compute and DRAM cycles of eval_layer_batched for the whole batch,
/// summed. Batching amortizes weight traffic (weights stream in once per
/// batch, not once per image) and fill/drain overhead, which is what makes
/// dynamic batching pay off in the serving engine (src/serve) —
/// especially at small resolutions where weights dominate the traffic. At
/// batch 1 this equals the per-layer network_roofline bound, except that
/// the batched form maps standard convs to im2col even when cfg asks for
/// the channel-wise mapping.
std::uint64_t network_bound_batched(const NetworkModel& model,
                                    const ArrayConfig& cfg,
                                    const systolic::MemoryConfig& mem,
                                    std::int64_t batch);

/// Whole-network latency with the per-layer breakdown preserved.
struct NetworkLatency {
  std::uint64_t total_cycles = 0;
  std::vector<LatencyEstimate> per_layer;  // parallel to model.layers

  /// Average utilization over latency-bearing cycles.
  double utilization(const ArrayConfig& cfg) const;
};

/// Whole-network latency from the closed-form evaluator
/// (sched/eval_fast.hpp): per layer, eval_layer_fast(layer, cfg, {}).latency,
/// which equals layer_latency field for field without lowering a plan.
/// Records no per-layer sched.* metrics (those tick on the plan path).
NetworkLatency network_latency(const NetworkModel& model,
                               const ArrayConfig& cfg);

/// Operator classes of the paper's Fig. 8(c) latency-distribution plot.
enum class OperatorClass {
  kStandardConv,
  kDepthwise,
  kPointwise,
  kFuse,
  kFcAndSe,
};
std::string operator_class_name(OperatorClass cls);
OperatorClass classify_layer(const LayerDesc& layer);

/// Total cycles per operator class.
struct OperatorBreakdown {
  std::uint64_t cycles[5] = {0, 0, 0, 0, 0};

  std::uint64_t total() const;
  double fraction(OperatorClass cls) const;
  std::uint64_t of(OperatorClass cls) const {
    return cycles[static_cast<int>(cls)];
  }
};
OperatorBreakdown operator_breakdown(const NetworkModel& model,
                                     const ArrayConfig& cfg);

/// Cycles attributed to each fuse slot — the dw/FuSe layer plus its
/// squeeze-excite and projection pointwise, via LayerDesc::fuse_slot —
/// from the closed form. Slot savings, Fig. 8(b)'s layerwise speedups and
/// the NOS search all read it.
std::map<int, std::uint64_t> cycles_by_slot(const NetworkModel& model,
                                            const ArrayConfig& cfg);

/// Per-slot cycle savings of switching one depthwise slot to FuSeConv with
/// `mode` (kFull or kHalf), everything else baseline. Savings include the
/// ripple onto the slot's squeeze-excite and projection pointwise (tagged
/// via LayerDesc::fuse_slot). Used to pick the 50% variants.
std::vector<double> slot_savings(NetworkId id, FuseMode mode,
                                 const ArrayConfig& cfg);

/// A fully resolved network variant: the lowered model plus the per-slot
/// modes that produced it.
struct VariantBuild {
  NetworkModel model;
  std::vector<FuseMode> modes;
};

/// Builds any Table-I variant; the 50% variants select slots greedily by
/// latency savings on the given array.
VariantBuild build_variant(NetworkId id, NetworkVariant variant,
                           const ArrayConfig& cfg);

/// Convenience: latency ratio baseline/variant on the given array.
double speedup_vs_baseline(NetworkId id, NetworkVariant variant,
                           const ArrayConfig& cfg);

// --- roofline extension (beyond the paper's compute-bound assumption) --------

/// Whole-network roofline: per-layer max(compute, memory) summed, plus the
/// totals for reporting.
struct NetworkRoofline {
  std::uint64_t compute_cycles = 0;   // the paper's metric
  std::uint64_t memory_cycles = 0;    // traffic / bandwidth
  std::uint64_t bound_cycles = 0;     // sum of per-layer max()
  std::uint64_t total_bytes = 0;
  int memory_bound_layers = 0;
};
/// Whole-network roofline of the per-layer schedule: each layer's
/// max(compute, memory), summed, from the closed-form evaluator
/// (eval_fast.hpp). Equals plan_roofline(plan_network(..., kPerLayer))
/// field for field. The fused bound, which charges legal depthwise/FuSe
/// -> pointwise pairs as single units, comes from plan_network or
/// eval_network_fast with SchedMode::kFused.
NetworkRoofline network_roofline(const NetworkModel& model,
                                 const ArrayConfig& cfg,
                                 const systolic::MemoryConfig& mem);

/// Speedup of a variant with the roofline model at the given bandwidth.
double roofline_speedup(NetworkId id, NetworkVariant variant,
                        const ArrayConfig& cfg,
                        const systolic::MemoryConfig& mem);

/// Energy of one inference: per-layer MAC + idle + SRAM + DRAM energy
/// under the hw::EnergyModel (see hw/energy.hpp for the decomposition).
hw::EnergyReport network_energy(const NetworkModel& model,
                                const ArrayConfig& cfg,
                                const systolic::MemoryConfig& mem,
                                const hw::EnergyModel& energy);

}  // namespace fuse::sched
