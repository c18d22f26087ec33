// Network-level scheduler: the Plan-of-plans above the per-layer
// MappingPlan IR.
//
//   NetworkModel --plan_network()--> NetworkPlan --roofline/timeline/
//                                                  execute/trace
//
// plan_network lowers every layer once, runs a liveness analysis over the
// inter-layer activations, assigns SRAM regions (double-buffered fold
// staging + resident activation buffers) under MemoryConfig::sram_bytes,
// and — in the fused schedule mode — pairs each depthwise/FuSe producer
// with its pointwise consumer and interleaves their folds so a pointwise
// row-stripe launches as soon as the producer folds feeding its input
// positions have landed. Fusion removes the pair's redundant DRAM traffic
// (the producer's output never leaves SRAM; the consumer's input is never
// re-streamed from DRAM), which is what plan_roofline charges; compute
// cycles are NEVER changed — the schedule only reorders whole folds, so
// total_cycles is byte-for-byte the sum of the per-layer analytic
// latencies in both modes (FUSE_CHECKed at plan time). The caller picks
// the mode on every call; nothing process-wide selects it. The identity
// keeps every cycle total the same in both modes and makes the fused
// roofline provably never slower:
//   max(c1 + c2, ceil((B1' + B2')/bw)) <= max(c1, ceil(B1/bw))
//                                       + max(c2, ceil(B2/bw))
// for B1' <= B1, B2' <= B2 (ceil is subadditive, max is monotone).
//
// docs/scheduler.md walks the IR, the legality rules, and the SRAM
// planning algorithm, including what its linear-chain liveness leaves
// out (residual skips) and the FuSe-stage lifetime patch (§2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/latency.hpp"
#include "systolic/mapping.hpp"

namespace fuse::sched {

/// Network schedule, always passed explicitly (plan_network and
/// eval_network_fast take it as an argument); network_roofline is the
/// per-layer roofline by definition.
enum class SchedMode {
  kPerLayer,  // layers cost their full load/flush traffic, run serially
  kFused,     // legal dw/FuSe->pw pairs share SRAM and interleave folds
};

/// "per-layer" / "fused".
const char* sched_mode_name(SchedMode mode);

/// Parses "per-layer"/"per_layer"/"fused"; returns false on unknown names.
bool parse_sched_mode(const std::string& name, SchedMode* out);

/// One inter-layer activation tensor with its SRAM placement. `producer`
/// is the index into model.layers whose output this is (kNetworkInput for
/// the network input); the buffer is live over the on-array step interval
/// [first_step, last_step] (steps index the on-array layer order).
struct ActivationBuffer {
  static constexpr std::size_t kNetworkInput =
      static_cast<std::size_t>(-1);

  std::size_t producer = kNetworkInput;
  std::size_t first_step = 0;
  std::size_t last_step = 0;
  std::uint64_t bytes = 0;
  std::uint64_t offset = 0;  // SRAM byte offset when resident
  bool spilled = false;      // did not fit: lives in DRAM instead
};

/// One fused producer(s)->consumer group and the DRAM traffic it removes:
/// the producer outputs are consumed from SRAM (never flushed), and the
/// consumer's input is served from SRAM (never re-streamed per col-fold).
/// A depthwise -> pointwise pair has one producer; a FuSe stage fuses as a
/// {row, col} -> pointwise triple (`producer2` set) because the pointwise
/// consumes the concatenation of both 1D branches.
struct FusedPair {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::size_t producer = 0;     // index into model.layers
  std::size_t producer2 = kNone;  // second branch of a FuSe triple
  std::size_t consumer = 0;
  std::uint64_t saved_output_bytes = 0;  // producer output flushes removed
  std::uint64_t saved_input_bytes = 0;   // consumer input loads removed
};

/// One contiguous span of array time given to one layer's folds. Per-layer
/// schedules have exactly one segment per on-array layer; fused pairs
/// alternate producer/consumer segments (`fused` set on both halves).
struct ScheduleSegment {
  std::size_t layer_index = 0;  // into model.layers
  std::uint64_t start_cycle = 0;
  std::uint64_t end_cycle = 0;  // exclusive
  std::uint64_t folds = 0;      // array passes inside this segment
  bool fused = false;
  /// Resident SRAM during the segment: live activation buffers plus the
  /// running layer's double-buffered fold staging.
  std::uint64_t sram_bytes = 0;

  std::uint64_t duration() const { return end_cycle - start_cycle; }
};

/// The per-layer numbers the network schedule is a function of — what a
/// lowered MappingPlan costs, without the plan itself. Both cost paths
/// produce these: plan_network folds them out of real lowered plans, and
/// sched/eval_fast computes them in closed form. schedule_costs /
/// roofline_over below consume ONLY this struct, which is what makes the
/// two paths provably agree: identical LayerCosts in, identical schedule
/// and roofline out.
struct LayerCost {
  systolic::LatencyEstimate latency;
  systolic::TrafficEstimate traffic;
  /// Largest per-fold operand footprint (plan_peak_fold_bytes).
  std::uint64_t peak_fold_bytes = 0;
  /// False for glue ops (pool/activation/add) that never touch the array.
  bool on_array = false;
};

/// The schedule-level decisions derived from per-layer costs: which layers
/// run on the array, where their activations live in SRAM, and which
/// producer->consumer groups fuse. Everything except the segment timeline
/// of a full NetworkPlan.
struct CostSchedule {
  std::vector<std::size_t> on_array;
  std::vector<ActivationBuffer> buffers;
  std::vector<FusedPair> fused_pairs;
  std::uint64_t staging_bytes = 0;
};

/// Runs the liveness analysis, SRAM first-fit allocation, and (in fused
/// mode) the fusion-legality scan over per-layer costs. This is the single
/// home of the scheduler's legality rules — plan_network and the
/// closed-form evaluator both call it. Records the netplan.* pair/spill
/// counters.
CostSchedule schedule_costs(const nets::NetworkModel& model,
                            const std::vector<LayerCost>& costs,
                            const systolic::MemoryConfig& mem,
                            SchedMode mode);

/// Roofline over per-layer costs + fused pairs: each unfused layer (and
/// each fused group, as one unit with the pair's saved bytes subtracted)
/// contributes max(compute, memory). plan_roofline is this applied to a
/// NetworkPlan's own vectors.
NetworkRoofline roofline_over(const std::vector<LayerCost>& costs,
                              const std::vector<FusedPair>& pairs,
                              const systolic::MemoryConfig& mem);

/// The whole-network schedule. Per-layer vectors are parallel to
/// model.layers (glue ops carry empty plans and zero estimates).
struct NetworkPlan {
  SchedMode mode = SchedMode::kPerLayer;
  systolic::ArrayConfig cfg;
  systolic::MemoryConfig mem;

  std::vector<systolic::MappingPlan> layer_plans;
  std::vector<systolic::LatencyEstimate> layer_latency;
  std::vector<systolic::TrafficEstimate> layer_traffic;
  std::vector<std::size_t> on_array;  // layer indices with non-empty plans

  std::vector<ActivationBuffer> buffers;
  std::vector<FusedPair> fused_pairs;
  std::vector<ScheduleSegment> segments;

  /// Sum of per-layer analytic latencies — identical across modes (fold
  /// interleaving only reorders; FUSE_CHECKed in plan_network).
  std::uint64_t total_cycles = 0;
  /// 2x the largest per-fold operand footprint of any layer: the statically
  /// reserved [0, staging_bytes) region whose two halves are the
  /// current/prefetch double-buffer slots.
  std::uint64_t staging_bytes = 0;
  /// max over steps of (resident live activation bytes + the step's
  /// double-buffered staging).
  std::uint64_t sram_high_water = 0;

  /// The pair/triple that `layer_index` produces or consumes in, or
  /// nullptr.
  const FusedPair* pair_of(std::size_t layer_index) const;
};

/// Builds the schedule for one network on one array. Lowers each layer
/// exactly once; records the per-layer sched.* metrics (like
/// layer_latency would) plus the netplan.* pair/SRAM metrics.
NetworkPlan plan_network(const nets::NetworkModel& model,
                         const systolic::ArrayConfig& cfg,
                         const systolic::MemoryConfig& mem,
                         SchedMode mode);

/// Roofline over a schedule: per-layer mode charges every layer
/// max(compute, memory) independently (identical to the legacy
/// network_roofline walk); fused mode charges each fused pair as ONE unit
/// — max(c1 + c2, memory of the pair's reduced traffic) — so the bound is
/// never above the per-layer bound. memory_bound_layers counts scheduling
/// units (a fused pair is one unit).
NetworkRoofline plan_roofline(const NetworkPlan& plan);

}  // namespace fuse::sched
