// Helpers shared by the two layer-by-layer workloads (host_infer,
// array_sim): seeded tensors shared by shape, the per-LayerDesc call list
// of one item, per-class aggregation of traced layer times, and the
// per-layer CSV artifact.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "nets/builder.hpp"
#include "nn/layer.hpp"
#include "systolic/config.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Seeded uniform [-1, 1) tensors, one per (role, shape). Layers of equal
/// geometry share their input and weights, which keeps the working set
/// small; references stay valid for the object's lifetime.
class SeededTensors {
 public:
  enum Role { kInput, kWeight, kBias };

  explicit SeededTensors(std::uint64_t seed) : seed_(seed) {}

  const fuse::tensor::Tensor& get(Role role,
                                  const std::vector<std::int64_t>& dims);

 private:
  std::uint64_t seed_;
  std::map<std::pair<int, std::vector<std::int64_t>>, fuse::tensor::Tensor>
      tensors_;
};

/// One on-array-class layer of an item with its operands bound.
struct LayerCall {
  const fuse::nn::LayerDesc* desc = nullptr;
  int cls = 0;  // index into kLayerClasses
  const fuse::tensor::Tensor* input = nullptr;
  const fuse::tensor::Tensor* weight = nullptr;
  const fuse::tensor::Tensor* bias = nullptr;  // nullptr: no bias
  std::uint64_t macs = 0;  // LayerDesc::macs, the operator's own work
  // sched::layer_latency on the item's array; the array's MACs include the
  // discarded outputs of strided FuSe layers.
  std::uint64_t modeled_cycles = 0;
  std::uint64_t modeled_folds = 0;
  std::uint64_t modeled_macs = 0;
};

/// One network x variant: its model and the calls of its conv/FC layers.
struct LayerItem {
  std::string label;  // "MobileNet-V1/FuSe-Full"
  fuse::nets::NetworkModel model;
  std::vector<LayerCall> calls;
  std::vector<std::vector<std::int64_t>> traced_ns;  // [call][traced pass]
};

/// Binds every conv-family / FC layer of `item.model` to seeded operands
/// (weights [out_c, in_c/groups, kh, kw] or [out_f, in_f]) and its modeled
/// cycles on `cfg`. `fc_input_2d` selects the [1, in_f] FC input layout of
/// nn::linear over the [1, in_f, 1, 1] one of the array executor.
void bind_layers(LayerItem& item, SeededTensors& tensors,
                 const fuse::systolic::ArrayConfig& cfg, bool fc_input_2d);

/// Per-class totals of one traced pass over all items, median over passes.
struct ClassTotals {
  double ms[kNumLayerClasses] = {};          // median ms per pass
  std::uint64_t calls[kNumLayerClasses] = {};  // per pass
  std::uint64_t macs[kNumLayerClasses] = {};
  std::uint64_t cycles[kNumLayerClasses] = {};
  std::uint64_t folds[kNumLayerClasses] = {};
  std::uint64_t array_macs[kNumLayerClasses] = {};
};
ClassTotals class_totals(const std::vector<LayerItem>& items);

/// Writes one row per LayerDesc: item, layer, kind, MACs, modeled cycles,
/// host ns p50 over the traced passes, ns per modeled cycle.
void write_layer_csv(const std::string& path,
                     const std::vector<LayerItem>& items);

}  // namespace perfbench
