// Workload `array_sim`: one item is a layer-by-layer PE-grid simulation of
// one network x variant through sched::execute_layer_on_array — the
// simulator's fold engine and its pool. Networks: MobileNet-V1 and -V2 at
// width 0.5 and 128x128 x {Baseline, FuSe-Full, FuSe-Half} (6 items per
// pass; at 224x224 an item takes up to ~0.8 s). The array is 64x64 with
// broadcast links and overlap_fold_drain off, the configuration the
// simulator measures exactly.
//
// Checks: every timed layer's cycles, folds and MACs equal
// sched::layer_latency exactly and every item reproduces its first-run
// output checksum; once, outside the timed region, every distinct layer's
// output is allclose(rtol 1e-3, atol 1e-4) to the nn operators (the
// tests/test_execute.cpp rule).
#include <cstdio>
#include <map>
#include <tuple>

#include "harness.hpp"
#include "layers.hpp"
#include "nets/zoo.hpp"
#include "nn/ops.hpp"
#include "sched/execute.hpp"
#include "sched/latency.hpp"

namespace perfbench {
namespace {

using fuse::core::FuseMode;
using fuse::nn::OpKind;
using fuse::tensor::Shape;
using fuse::tensor::Tensor;

fuse::systolic::ArrayConfig sim_array() {
  fuse::systolic::ArrayConfig cfg = fuse::systolic::square_array(64);
  cfg.overlap_fold_drain = false;
  return cfg;
}

/// The nn operator output `call` must match on the array.
Tensor nn_output(const LayerCall& call) {
  const fuse::nn::LayerDesc& layer = *call.desc;
  if (layer.kind == OpKind::kFullyConnected) {
    return fuse::nn::linear(call.input->reshaped(Shape{1, layer.in_c}),
                            *call.weight, nullptr)
        .reshaped(Shape{1, layer.out_c, 1, 1});
  }
  fuse::nn::Conv2dParams params;
  params.stride_h = layer.stride_h;
  params.stride_w = layer.stride_w;
  params.pad_h = layer.pad_h;
  params.pad_w = layer.pad_w;
  params.groups = layer.groups;
  return fuse::nn::conv2d(*call.input, *call.weight, nullptr, params);
}

class ArraySim : public Workload {
 public:
  explicit ArraySim(const Options& options)
      : cfg_(sim_array()), tensors_(options.seed) {
    const std::pair<fuse::core::NetworkVariant, FuseMode> variants[] = {
        {fuse::core::NetworkVariant::kBaseline, FuseMode::kBaseline},
        {fuse::core::NetworkVariant::kFuseFull, FuseMode::kFull},
        {fuse::core::NetworkVariant::kFuseHalf, FuseMode::kHalf}};
    for (const fuse::nets::NetworkId id :
         {fuse::nets::NetworkId::kMobileNetV1,
          fuse::nets::NetworkId::kMobileNetV2}) {
      for (const auto& [variant, mode] : variants) {
        LayerItem item;
        item.label = fuse::nets::network_name(id) + "/" +
                     fuse::core::network_variant_name(variant);
        item.model = fuse::nets::build_network_scaled(
            id, 0.5,
            std::vector<FuseMode>(
                static_cast<std::size_t>(fuse::nets::num_fuse_slots(id)),
                mode),
            128);
        items_.push_back(std::move(item));
      }
    }
    for (LayerItem& item : items_) {
      bind_layers(item, tensors_, cfg_, /*fc_input_2d=*/false);
    }
    if (options.perturb_expected) {
      items_[0].calls[0].modeled_cycles += 1;
    }
    checksums_.assign(items_.size(), 0);
    run_once(0);  // warm-up: simulator pool threads, allocator
  }

  std::size_t items() const override { return items_.size(); }

  bool run_item(std::size_t index,
                std::vector<std::int64_t>& unit_ns) override {
    LayerItem& item = items_[index];
    std::uint64_t hash = 1469598103934665603ULL;
    bool exact = true;
    for (std::size_t j = 0; j < item.calls.size(); ++j) {
      const LayerCall& call = item.calls[j];
      const Clock::time_point start = Clock::now();
      const fuse::sched::LayerExecution exec =
          fuse::sched::execute_layer_on_array(*call.desc, *call.input,
                                              *call.weight, cfg_);
      const Clock::time_point end = Clock::now();
      unit_ns.push_back(elapsed_ns(start, end));
      if (tracer.enabled()) {
        item.traced_ns[j].push_back(unit_ns.back());
        tracer.span(call.desc->name, "sim", start, end,
                    static_cast<int>(index));
      }
      exact = exact && exec.cycles == call.modeled_cycles &&
              exec.folds == call.modeled_folds &&
              exec.mac_ops == call.modeled_macs;
      hash = fnv_mix(hash, sampled_checksum(exec.output.data(),
                                            exec.output.num_elements(), 1));
    }
    if (checksums_[index] == 0) {
      checksums_[index] = hash;
    }
    return exact && hash == checksums_[index];
  }

  std::size_t verify() override {
    using Key = std::tuple<const Tensor*, const Tensor*, std::int64_t,
                           std::int64_t, std::int64_t, std::int64_t,
                           std::int64_t>;
    std::map<Key, bool> checked;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      bool ok = run_once(i);
      for (const LayerCall& call : items_[i].calls) {
        const fuse::nn::LayerDesc& l = *call.desc;
        const Key key{call.input,  call.weight, l.stride_h, l.stride_w,
                      l.pad_h,     l.pad_w,     l.groups};
        auto it = checked.find(key);
        if (it == checked.end()) {
          const fuse::sched::LayerExecution exec =
              fuse::sched::execute_layer_on_array(l, *call.input,
                                                  *call.weight, cfg_);
          const bool close = fuse::tensor::allclose(exec.output,
                                                    nn_output(call), 1e-3F,
                                                    1e-4F);
          if (!close) {
            std::fprintf(stderr, "array_sim: %s/%s differs from nn\n",
                         items_[i].label.c_str(), l.name.c_str());
          }
          it = checked.emplace(key, close).first;
        }
        ok = ok && it->second;
      }
      failed += ok ? 0 : 1;
    }
    return failed;
  }

  void layer_metrics(double /*seconds*/,
                     std::vector<Metric>& metrics) const override {
    const ClassTotals totals = class_totals(items_);
    std::uint64_t cycles = 0;
    std::uint64_t macs = 0;
    for (int c = 0; c < kNumLayerClasses; ++c) {
      const std::string prefix = std::string("sim.") + kLayerClasses[c];
      const double ns = totals.ms[c] * 1e6;
      set_metric(metrics, prefix + ".ms", totals.ms[c]);
      set_metric(metrics, prefix + ".ns_per_fold",
                 totals.folds[c] > 0
                     ? ns / static_cast<double>(totals.folds[c])
                     : 0.0);
      set_metric(metrics, prefix + ".ns_per_mac",
                 totals.array_macs[c] > 0
                     ? ns / static_cast<double>(totals.array_macs[c])
                     : 0.0);
      cycles += totals.cycles[c];
      macs += totals.array_macs[c];
    }
    set_metric(metrics, "sim.simulated_cycles", static_cast<double>(cycles));
    set_metric(metrics, "sim.pe_util_pct",
               100.0 * static_cast<double>(macs) /
                   (static_cast<double>(cycles) *
                    static_cast<double>(cfg_.pe_count())));
  }

  void write_artifacts(const std::string& dir) const override {
    write_layer_csv(dir + "/array_sim_layers.csv", items_);
  }

 private:
  fuse::systolic::ArrayConfig cfg_;
  SeededTensors tensors_;
  std::vector<LayerItem> items_;
  std::vector<std::uint64_t> checksums_;
};

}  // namespace

std::unique_ptr<Workload> make_array_sim(const Options& options) {
  return std::make_unique<ArraySim>(options);
}

}  // namespace perfbench
