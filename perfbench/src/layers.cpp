#include "layers.hpp"

#include <fstream>

#include "sched/latency.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace perfbench {

using fuse::tensor::Shape;
using fuse::tensor::Tensor;

const Tensor& SeededTensors::get(Role role,
                                 const std::vector<std::int64_t>& dims) {
  const auto key = std::make_pair(static_cast<int>(role), dims);
  auto it = tensors_.find(key);
  if (it == tensors_.end()) {
    std::uint64_t hash = fnv_mix(seed_, static_cast<std::uint64_t>(role));
    for (const std::int64_t d : dims) {
      hash = fnv_mix(hash, static_cast<std::uint64_t>(d));
    }
    fuse::util::Rng rng(hash);
    Tensor tensor{Shape(dims)};
    tensor.fill_uniform(rng, -1.0F, 1.0F);
    it = tensors_.emplace(key, std::move(tensor)).first;
  }
  return it->second;
}

void bind_layers(LayerItem& item, SeededTensors& tensors,
                 const fuse::systolic::ArrayConfig& cfg, bool fc_input_2d) {
  using fuse::nn::OpKind;
  for (const fuse::nn::LayerDesc& layer : item.model.layers) {
    const int cls = layer_class(layer.kind);
    if (cls < 0) {
      continue;  // glue: waits for the graph IR
    }
    LayerCall call;
    call.desc = &layer;
    call.cls = cls;
    if (layer.kind == OpKind::kFullyConnected) {
      const std::int64_t in_f = layer.in_c * layer.in_h * layer.in_w;
      call.input = &tensors.get(SeededTensors::kInput,
                                fc_input_2d
                                    ? std::vector<std::int64_t>{1, in_f}
                                    : std::vector<std::int64_t>{1, in_f, 1, 1});
      call.weight =
          &tensors.get(SeededTensors::kWeight, {layer.out_c, in_f});
    } else {
      call.input = &tensors.get(SeededTensors::kInput,
                                {1, layer.in_c, layer.in_h, layer.in_w});
      call.weight = &tensors.get(
          SeededTensors::kWeight, {layer.out_c, layer.in_c / layer.groups,
                                   layer.kernel_h, layer.kernel_w});
    }
    if (layer.has_bias) {
      call.bias = &tensors.get(SeededTensors::kBias, {layer.out_c});
    }
    call.macs = layer.macs();
    const fuse::systolic::LatencyEstimate modeled =
        fuse::sched::layer_latency(layer, cfg);
    call.modeled_cycles = modeled.cycles;
    call.modeled_folds = modeled.folds;
    call.modeled_macs = modeled.mac_ops;
    item.calls.push_back(call);
  }
  item.traced_ns.assign(item.calls.size(), {});
}

ClassTotals class_totals(const std::vector<LayerItem>& items) {
  ClassTotals totals;
  std::size_t passes = 0;
  for (const LayerItem& item : items) {
    for (std::size_t j = 0; j < item.calls.size(); ++j) {
      const LayerCall& call = item.calls[j];
      totals.calls[call.cls] += 1;
      totals.macs[call.cls] += call.macs;
      totals.cycles[call.cls] += call.modeled_cycles;
      totals.folds[call.cls] += call.modeled_folds;
      totals.array_macs[call.cls] += call.modeled_macs;
      passes = passes == 0 ? item.traced_ns[j].size()
                           : std::min(passes, item.traced_ns[j].size());
    }
  }
  for (int cls = 0; cls < kNumLayerClasses; ++cls) {
    std::vector<double> per_pass(passes, 0.0);
    for (const LayerItem& item : items) {
      for (std::size_t j = 0; j < item.calls.size(); ++j) {
        if (item.calls[j].cls != cls) {
          continue;
        }
        for (std::size_t p = 0; p < passes; ++p) {
          per_pass[p] += static_cast<double>(item.traced_ns[j][p]) / 1e6;
        }
      }
    }
    totals.ms[cls] = median(per_pass);
  }
  return totals;
}

void write_layer_csv(const std::string& path,
                     const std::vector<LayerItem>& items) {
  std::ofstream out(path);
  FUSE_CHECK(out.good()) << "cannot write " << path;
  out << "item,layer,kind,macs,modeled_cycles_64x64,host_ns_p50,"
         "ns_per_modeled_cycle\n";
  for (const LayerItem& item : items) {
    for (std::size_t j = 0; j < item.calls.size(); ++j) {
      const LayerCall& call = item.calls[j];
      std::vector<double> ns(item.traced_ns[j].begin(),
                             item.traced_ns[j].end());
      const double p50 = median(ns);
      out << item.label << ',' << call.desc->name << ','
          << fuse::nn::op_kind_name(call.desc->kind) << ',' << call.macs
          << ',' << call.modeled_cycles << ',' << p50 << ','
          << p50 / static_cast<double>(call.modeled_cycles) << '\n';
    }
  }
}

}  // namespace perfbench
