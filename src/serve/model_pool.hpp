// Shape-keyed model/plan memoization for the serving engine.
//
// Serving sustains thousands of requests over a handful of distinct
// shapes, so the heavy pure functions of the ShapeKey — building the
// variant, lowering every layer, SRAM planning, the seeded weights for
// tensor/simulate execution — are computed once per key here and shared
// by every request and every engine. The batched roofline service time is
// not memoized: it is a closed-form evaluation per call, whose cost does
// not grow with the batch. One shared_mutex guards the table: readers
// share, inserts are exclusive; entries are stable once inserted
// (unique_ptr values), so returned references stay valid for the pool's
// lifetime.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "sched/latency.hpp"
#include "sched/netplan.hpp"
#include "serve/request.hpp"
#include "systolic/config.hpp"
#include "systolic/memory.hpp"
#include "tensor/tensor.hpp"

namespace fuse::serve {

/// Everything the engine needs about one shape. `model`/`plan`/
/// `chain_executable` are immutable after the build; the lazily seeded
/// weights are guarded by `mutex`.
struct ModelEntry {
  nets::NetworkModel model;
  sched::NetworkPlan plan;        // batch-1 schedule (simulate mode, stats)
  bool chain_executable = false;  // tensor/simulate modes require true

  mutable std::mutex mutex;
  mutable std::vector<tensor::Tensor> weights;  // parallel to model.layers
};

/// True when every layer runs on the array and activations thread through
/// as a flat chain (the execute_network_on_array contract): conv-family /
/// FC kinds only, each layer's input geometry equal to its predecessor's
/// output (an FC consumes a [C, 1, 1] activation as C features). Zoo
/// models with pool/add/SE glue — and FuSe variants, whose row/col
/// branches concatenate — are NOT chains and serve in cycle mode only.
bool is_chain_executable(const nets::NetworkModel& model);

class ModelPool {
 public:
  /// All entries are built for this array/memory/schedule mode.
  /// `weight_seed` feeds the deterministic per-layer weight fills.
  explicit ModelPool(const systolic::ArrayConfig& cfg,
                     const systolic::MemoryConfig& mem = {},
                     sched::SchedMode sched_mode = sched::SchedMode::kPerLayer,
                     std::uint64_t weight_seed = 0x5eedULL);

  const systolic::ArrayConfig& array() const { return cfg_; }
  const systolic::MemoryConfig& memory() const { return mem_; }

  /// The memoized entry, built on first use. Thread-safe; the reference
  /// stays valid for the pool's lifetime.
  const ModelEntry& entry(const ShapeKey& key);

  /// Batched roofline service time (sched::network_bound_batched) for the
  /// whole batch, evaluated in closed form on every call. This is the
  /// engine's service model: weight traffic amortizes across the batch,
  /// which is the mechanism dynamic batching exploits.
  std::uint64_t service_cycles(const ShapeKey& key, std::int64_t batch);

  /// Seeded per-layer weights for tensor/simulate execution, built lazily
  /// (weight layouts follow sched/execute.hpp). Requires chain_executable.
  const std::vector<tensor::Tensor>& weights(const ShapeKey& key);

  /// Registers a caller-built model; the returned index goes into
  /// ShapeKey::custom. Register before serving starts (indices are dense).
  int register_custom(nets::NetworkModel model);

  std::size_t entries() const;

 private:
  std::unique_ptr<ModelEntry> build_entry(const ShapeKey& key);

  systolic::ArrayConfig cfg_;
  systolic::MemoryConfig mem_;
  sched::SchedMode sched_mode_;
  std::uint64_t weight_seed_;

  mutable std::shared_mutex entries_mutex_;
  std::unordered_map<ShapeKey, std::unique_ptr<ModelEntry>, ShapeKeyHash>
      entries_;  // guarded by entries_mutex_

  mutable std::mutex custom_mutex_;
  std::vector<nets::NetworkModel> customs_;
};

/// The deterministic input tensor for one request: [1, C, H, W] from the
/// entry's first layer, filled from Rng(seed mixed with the request id).
/// Batch assembly copies these rows verbatim, so a request's slice of a
/// batched output is bit-identical to its standalone run — the property
/// the serve tests pin.
tensor::Tensor request_input(const ModelEntry& entry, std::uint64_t seed,
                             std::uint64_t request_id);

/// FNV-1a over the raw float bits.
std::uint64_t tensor_checksum(const tensor::Tensor& tensor);

}  // namespace fuse::serve
