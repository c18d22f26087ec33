#include "serve/model_pool.hpp"

#include <cstring>
#include <utility>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace fuse::serve {

using nn::LayerDesc;
using nn::OpKind;
using tensor::Shape;
using tensor::Tensor;

namespace {

util::Counter& pool_builds() {
  static util::Counter& counter =
      util::metrics().counter("serve.model_builds");
  return counter;
}

/// Weight tensor shape for one executable layer, matching the layouts
/// sched/execute.hpp documents (and nn::conv2d's [out, in/groups, kh, kw]).
Shape weight_shape(const LayerDesc& layer) {
  switch (layer.kind) {
    case OpKind::kStandardConv:
      return Shape{layer.out_c, layer.in_c, layer.kernel_h, layer.kernel_w};
    case OpKind::kDepthwiseConv:
    case OpKind::kFuseRowConv:
    case OpKind::kFuseColConv:
      return Shape{layer.out_c, 1, layer.kernel_h, layer.kernel_w};
    case OpKind::kPointwiseConv:
      return Shape{layer.out_c, layer.in_c, 1, 1};
    case OpKind::kFullyConnected:
      return Shape{layer.out_c, layer.in_c};
    default:
      FUSE_CHECK(false) << "no weights for layer kind "
                        << nn::op_kind_name(layer.kind);
  }
  return Shape{};
}

bool executable_kind(OpKind kind) {
  switch (kind) {
    case OpKind::kStandardConv:
    case OpKind::kDepthwiseConv:
    case OpKind::kPointwiseConv:
    case OpKind::kFuseRowConv:
    case OpKind::kFuseColConv:
    case OpKind::kFullyConnected:
      return true;
    default:
      return false;
  }
}

}  // namespace

bool is_chain_executable(const nets::NetworkModel& model) {
  if (model.layers.empty()) {
    return false;
  }
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    const LayerDesc& layer = model.layers[i];
    if (!executable_kind(layer.kind)) {
      return false;
    }
    if (i == 0) {
      continue;
    }
    const LayerDesc& prev = model.layers[i - 1];
    // An FC consumes a [C, 1, 1] activation as C features (in_h == in_w
    // == 1 by construction); everything else must match exactly.
    if (layer.in_c != prev.out_c || layer.in_h != prev.out_h ||
        layer.in_w != prev.out_w) {
      return false;
    }
  }
  return true;
}

ModelPool::ModelPool(const systolic::ArrayConfig& cfg,
                     const systolic::MemoryConfig& mem,
                     sched::SchedMode sched_mode, std::uint64_t weight_seed)
    : cfg_(cfg), mem_(mem), sched_mode_(sched_mode),
      weight_seed_(weight_seed) {
  cfg_.validate();
}

const ModelEntry& ModelPool::entry(const ShapeKey& key) {
  {
    std::shared_lock<std::shared_mutex> lock(entries_mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      return *it->second;
    }
  }
  // Build outside any lock (variant builds are heavy), insert under the
  // exclusive lock; a racing double-build inserts the same pure value and
  // the first insert wins.
  std::unique_ptr<ModelEntry> built = build_entry(key);
  std::unique_lock<std::shared_mutex> lock(entries_mutex_);
  const auto [it, inserted] = entries_.emplace(key, std::move(built));
  if (inserted) {
    pool_builds().add();
  }
  return *it->second;
}

std::unique_ptr<ModelEntry> ModelPool::build_entry(const ShapeKey& key) {
  auto entry = std::make_unique<ModelEntry>();
  if (key.custom >= 0) {
    std::lock_guard<std::mutex> lock(custom_mutex_);
    FUSE_CHECK(static_cast<std::size_t>(key.custom) < customs_.size())
        << "ShapeKey names unregistered custom model #" << key.custom;
    entry->model = customs_[static_cast<std::size_t>(key.custom)];
  } else if (key.resolution == 224) {
    entry->model = sched::build_variant(key.net, key.variant, cfg_).model;
  } else {
    // Scaled resolutions exist for V1/V2 only (the networks whose papers
    // define the multipliers); the 50% variants pick slots by savings at
    // the canonical 224 geometry — the slot count is resolution-invariant,
    // so the same modes vector applies (nets/zoo.hpp).
    FUSE_CHECK(key.net == nets::NetworkId::kMobileNetV1 ||
               key.net == nets::NetworkId::kMobileNetV2)
        << shape_key_name(key)
        << ": only MobileNet-V1/V2 serve at non-224 resolutions";
    std::vector<double> savings;
    if (key.variant == core::NetworkVariant::kFuseFull50) {
      savings = sched::slot_savings(key.net, core::FuseMode::kFull, cfg_);
    } else if (key.variant == core::NetworkVariant::kFuseHalf50) {
      savings = sched::slot_savings(key.net, core::FuseMode::kHalf, cfg_);
    }
    const std::vector<core::FuseMode> modes = core::modes_for_variant(
        key.variant, nets::num_fuse_slots(key.net), savings);
    entry->model =
        nets::build_network_scaled(key.net, 1.0, modes, key.resolution);
  }
  entry->plan =
      sched::plan_network(entry->model, cfg_, mem_, sched_mode_);
  entry->chain_executable = is_chain_executable(entry->model);
  return entry;
}

std::uint64_t ModelPool::service_cycles(const ShapeKey& key,
                                        std::int64_t batch) {
  FUSE_CHECK(batch >= 1) << "service_cycles needs batch >= 1, got " << batch;
  return sched::network_bound_batched(entry(key).model, cfg_, mem_, batch);
}

const std::vector<Tensor>& ModelPool::weights(const ShapeKey& key) {
  const ModelEntry& item = entry(key);
  FUSE_CHECK(item.chain_executable)
      << shape_key_name(key)
      << " is not chain-executable: weights exist only for tensor/simulate "
         "shapes";
  std::lock_guard<std::mutex> lock(item.mutex);
  if (!item.weights.empty()) {
    return item.weights;
  }
  item.weights.reserve(item.model.layers.size());
  const std::uint64_t key_hash = ShapeKeyHash{}(key);
  for (std::size_t i = 0; i < item.model.layers.size(); ++i) {
    Tensor weight(weight_shape(item.model.layers[i]));
    util::Rng rng(weight_seed_ ^ (key_hash * 0x9e3779b97f4a7c15ULL) ^
                  (i + 1));
    weight.fill_uniform(rng, -0.5F, 0.5F);
    item.weights.push_back(std::move(weight));
  }
  return item.weights;
}

int ModelPool::register_custom(nets::NetworkModel model) {
  std::lock_guard<std::mutex> lock(custom_mutex_);
  customs_.push_back(std::move(model));
  return static_cast<int>(customs_.size()) - 1;
}

std::size_t ModelPool::entries() const {
  std::shared_lock<std::shared_mutex> lock(entries_mutex_);
  return entries_.size();
}

Tensor request_input(const ModelEntry& entry, std::uint64_t seed,
                     std::uint64_t request_id) {
  const LayerDesc& first = entry.model.layers.front();
  Tensor input(Shape{1, first.in_c, first.in_h, first.in_w});
  util::Rng rng(seed ^ ((request_id + 1) * 0x9e3779b97f4a7c15ULL));
  input.fill_uniform(rng, -1.0F, 1.0F);
  return input;
}

namespace {

/// FNV-1a over L rows of `per` floats each, `stride` floats apart, the L
/// chains advanced together so their multiplies overlap. Each chain
/// hashes its own row's bytes in order, so out[r] is that row's
/// tensor_checksum.
template <int L>
void fnv1a_rows(const float* rows, std::int64_t per, std::int64_t stride,
                std::uint64_t* out) {
  std::uint64_t hash[L];
  for (int r = 0; r < L; ++r) {
    hash[r] = 1469598103934665603ULL;
  }
  for (std::int64_t i = 0; i < per; ++i) {
    // Unrolled, so each chain's hash stays in a register.
#pragma GCC unroll 4
    for (int r = 0; r < L; ++r) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, rows + r * stride + i, sizeof(bits));
#pragma GCC unroll 4
      for (int byte = 0; byte < 4; ++byte) {
        hash[r] ^= (bits >> (8 * byte)) & 0xffU;
        hash[r] *= 1099511628211ULL;
      }
    }
  }
  for (int r = 0; r < L; ++r) {
    out[r] = hash[r];
  }
}

}  // namespace

std::uint64_t tensor_checksum(const tensor::Tensor& tensor) {
  std::uint64_t hash = 0;
  fnv1a_rows<1>(tensor.data(), tensor.num_elements(), 0, &hash);
  return hash;
}

std::vector<std::uint64_t> row_checksums(const tensor::Tensor& batch) {
  const std::int64_t rows = batch.shape().dim(0);
  const std::int64_t per = rows == 0 ? 0 : batch.num_elements() / rows;
  std::vector<std::uint64_t> sums(static_cast<std::size_t>(rows));
  const float* data = batch.data();
  std::int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    fnv1a_rows<4>(data + r * per, per, per, sums.data() + r);
  }
  switch (rows - r) {
    case 3:
      fnv1a_rows<3>(data + r * per, per, per, sums.data() + r);
      break;
    case 2:
      fnv1a_rows<2>(data + r * per, per, per, sums.data() + r);
      break;
    case 1:
      fnv1a_rows<1>(data + r * per, per, per, sums.data() + r);
      break;
    default:
      break;
  }
  return sums;
}

}  // namespace fuse::serve
