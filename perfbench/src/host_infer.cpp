// Workload `host_infer`: one item is a batch-1, layer-by-layer host
// inference of one paper network x {Baseline, FuSe-Full, FuSe-Half} at
// 224x224 (15 items per pass). Every conv-family LayerDesc runs through
// nn::conv2d and every FC through nn::linear, on seeded operands of the
// layer's declared shape; glue ops (pool/add/activation) are skipped until
// the IR can execute them. This is the kernel backend at the paper's
// geometries: GEMM/pointwise, depthwise, and the FuSe row/column kernels.
//
// Checks: once, outside every timed region, each distinct layer geometry's
// output is compared with the nn reference oracle under the documented
// util::kernel_float_tolerance ULP bound; every timed item must then
// reproduce its first-run checksum.
#include <cstdio>
#include <map>
#include <tuple>

#include "harness.hpp"
#include "layers.hpp"
#include "nets/zoo.hpp"
#include "nn/ops.hpp"
#include "util/thread_pool.hpp"
#include "util/ulp.hpp"

namespace perfbench {
namespace {

using fuse::core::FuseMode;
using fuse::nn::OpKind;
using fuse::tensor::Shape;
using fuse::tensor::Tensor;

fuse::nn::Conv2dParams conv_params(const fuse::nn::LayerDesc& layer) {
  fuse::nn::Conv2dParams params;
  params.stride_h = layer.stride_h;
  params.stride_w = layer.stride_w;
  params.pad_h = layer.pad_h;
  params.pad_w = layer.pad_w;
  params.groups = layer.groups;
  return params;
}

Tensor execute(const LayerCall& call) {
  if (call.desc->kind == OpKind::kFullyConnected) {
    return fuse::nn::linear(*call.input, *call.weight, call.bias);
  }
  return fuse::nn::conv2d(*call.input, *call.weight, call.bias,
                          conv_params(*call.desc));
}

/// Rows `picks` of `t` viewed as [rows, num_elements / rows].
Tensor gather_rows(const Tensor& t, std::int64_t rows,
                   const std::vector<std::int64_t>& picks) {
  const std::int64_t width = t.num_elements() / rows;
  Tensor out(Shape{static_cast<std::int64_t>(picks.size()), width});
  for (std::size_t r = 0; r < picks.size(); ++r) {
    std::copy_n(t.data() + picks[r] * width, width,
                out.data() + static_cast<std::int64_t>(r) * width);
  }
  return out;
}

/// The fast output of `call` against the reference oracle under the
/// kernel ULP bound, on a spread of output channels (every step-th and the
/// last, at most ~17): output channels are independent, so the reference
/// recomputes only those, with the matching filters (and, for the
/// channelwise kinds, the matching input channels).
bool matches_reference(const LayerCall& call) {
  const fuse::nn::LayerDesc& layer = *call.desc;
  const bool fc = layer.kind == OpKind::kFullyConnected;
  const bool channelwise = !fc && layer.groups > 1;
  FUSE_CHECK(!channelwise ||
             (layer.groups == layer.in_c && layer.groups == layer.out_c))
      << layer.name << ": grouped convolutions are not sampled";
  std::vector<std::int64_t> picks;
  const std::int64_t step = std::max<std::int64_t>(1, layer.out_c / 16);
  for (std::int64_t c = 0; c < layer.out_c; c += step) {
    picks.push_back(c);
  }
  if (picks.back() != layer.out_c - 1) {
    picks.push_back(layer.out_c - 1);
  }
  const auto n = static_cast<std::int64_t>(picks.size());

  const Tensor weight = gather_rows(*call.weight, layer.out_c, picks)
                            .reshaped(fc ? Shape{n, call.weight->shape().dim(1)}
                                         : Shape{n, layer.in_c / layer.groups,
                                                 layer.kernel_h,
                                                 layer.kernel_w});
  const Tensor input =
      channelwise ? gather_rows(*call.input, layer.in_c, picks)
                        .reshaped(Shape{1, n, layer.in_h, layer.in_w})
                  : *call.input;
  const Tensor bias = call.bias != nullptr
                          ? gather_rows(*call.bias, layer.out_c, picks)
                                .reshaped(Shape{n})
                          : Tensor();
  const Tensor* bias_ptr = call.bias != nullptr ? &bias : nullptr;
  fuse::nn::Conv2dParams params = conv_params(layer);
  params.groups = channelwise ? n : 1;
  const Tensor ref =
      fc ? fuse::nn::linear_reference(input, weight, bias_ptr)
         : fuse::nn::conv2d_reference(input, weight, bias_ptr, params);
  const Tensor fast = gather_rows(execute(call), layer.out_c, picks);

  const std::int64_t k = fc ? call.weight->shape().dim(1)
                            : (layer.in_c / layer.groups) * layer.kernel_h *
                                  layer.kernel_w;
  const double magnitude =
      static_cast<double>(k) * call.input->abs_max() * call.weight->abs_max() +
      (call.bias != nullptr ? call.bias->abs_max() : 0.0);
  const fuse::util::UlpTolerance tol =
      fuse::util::kernel_float_tolerance(k, magnitude);
  if (fast.num_elements() != ref.num_elements()) {
    return false;
  }
  for (std::int64_t e = 0; e < fast.num_elements(); ++e) {
    if (!fuse::util::ulp_within(fast.data()[e], ref.data()[e], tol)) {
      std::fprintf(stderr, "host_infer: %s element %lld: %g vs reference %g\n",
                   layer.name.c_str(), static_cast<long long>(e),
                   fast.data()[e], ref.data()[e]);
      return false;
    }
  }
  return true;
}

class HostInfer : public Workload {
 public:
  explicit HostInfer(const Options& options)
      : tensors_(options.seed), perturb_(options.perturb_expected) {
    const std::pair<fuse::core::NetworkVariant, FuseMode> variants[] = {
        {fuse::core::NetworkVariant::kBaseline, FuseMode::kBaseline},
        {fuse::core::NetworkVariant::kFuseFull, FuseMode::kFull},
        {fuse::core::NetworkVariant::kFuseHalf, FuseMode::kHalf}};
    for (const fuse::nets::NetworkId id : fuse::nets::paper_networks()) {
      for (const auto& [variant, mode] : variants) {
        LayerItem item;
        item.label = fuse::nets::network_name(id) + "/" +
                     fuse::core::network_variant_name(variant);
        item.model = fuse::nets::build_network(
            id, std::vector<FuseMode>(
                    static_cast<std::size_t>(fuse::nets::num_fuse_slots(id)),
                    mode));
        items_.push_back(std::move(item));
      }
    }
    for (LayerItem& item : items_) {
      bind_layers(item, tensors_, fuse::systolic::square_array(64),
                  /*fc_input_2d=*/true);
    }
    checksums_.assign(items_.size(), 0);
    run_once(0);  // warm-up: kernel pool threads, allocator, caches
  }

  std::size_t items() const override { return items_.size(); }

  bool run_item(std::size_t index,
                std::vector<std::int64_t>& unit_ns) override {
    LayerItem& item = items_[index];
    std::uint64_t hash = 1469598103934665603ULL;
    for (std::size_t j = 0; j < item.calls.size(); ++j) {
      const LayerCall& call = item.calls[j];
      const Clock::time_point start = Clock::now();
      const Tensor out = execute(call);
      const Clock::time_point end = Clock::now();
      unit_ns.push_back(elapsed_ns(start, end));
      if (tracer.enabled()) {
        item.traced_ns[j].push_back(unit_ns.back());
        tracer.span(call.desc->name, "nn", start, end,
                    static_cast<int>(index));
      }
      hash = fnv_mix(hash, sampled_checksum(out.data(), out.num_elements(),
                                            kChecksumStride));
    }
    if (checksums_[index] == 0) {
      checksums_[index] = hash;
    }
    return hash == checksums_[index];
  }

  std::size_t verify() override {
    // Equal geometry means equal operands (SeededTensors shares them), so
    // each distinct (input, weight, bias, params) is checked once.
    using Key = std::tuple<const Tensor*, const Tensor*, const Tensor*,
                           std::int64_t, std::int64_t, std::int64_t,
                           std::int64_t, std::int64_t>;
    const auto key_of = [](const LayerCall& call) {
      const fuse::nn::LayerDesc& l = *call.desc;
      return Key{call.input, call.weight, call.bias, l.stride_h,
                 l.stride_w,  l.pad_h,      l.pad_w,   l.groups};
    };
    std::map<Key, std::size_t> index;  // distinct geometry -> slot
    std::vector<const LayerCall*> distinct;
    for (const LayerItem& item : items_) {
      for (const LayerCall& call : item.calls) {
        if (index.emplace(key_of(call), distinct.size()).second) {
          distinct.push_back(&call);
        }
      }
    }
    // The reference loops are single-threaded and slow; spread the
    // distinct geometries over the cores.
    std::vector<char> matches(distinct.size(), 0);
    fuse::util::ThreadPool pool(fuse::util::ThreadPool::hardware_threads() -
                                1);
    pool.parallel_for(static_cast<std::int64_t>(distinct.size()),
                      [&](std::int64_t d) {
                        const auto slot = static_cast<std::size_t>(d);
                        matches[slot] = matches_reference(*distinct[slot]);
                      });
    std::size_t failed = 0;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      bool ok = run_once(i);
      for (const LayerCall& call : items_[i].calls) {
        ok = ok && matches[index.at(key_of(call))] != 0;
      }
      failed += ok ? 0 : 1;
    }
    std::printf("host_infer: %zu distinct layer geometries checked against "
                "the reference oracle\n",
                distinct.size());
    if (perturb_) {
      checksums_[0] ^= 1;
    }
    return failed;
  }

  void layer_metrics(double /*seconds*/,
                     std::vector<Metric>& metrics) const override {
    const ClassTotals totals = class_totals(items_);
    for (int c = 0; c < kNumLayerClasses; ++c) {
      const std::string prefix = std::string("nn.") + kLayerClasses[c];
      const double ns = totals.ms[c] * 1e6;
      set_metric(metrics, prefix + ".ms", totals.ms[c]);
      set_metric(metrics, prefix + ".calls",
                 static_cast<double>(totals.calls[c]));
      set_metric(metrics, prefix + ".gmacs_per_s",
                 ns > 0 ? static_cast<double>(totals.macs[c]) / ns : 0.0);
      set_metric(metrics, prefix + ".ns_per_modeled_cycle",
                 totals.cycles[c] > 0
                     ? ns / static_cast<double>(totals.cycles[c])
                     : 0.0);
    }
  }

  void write_artifacts(const std::string& dir) const override {
    write_layer_csv(dir + "/host_infer_layers.csv", items_);
  }

 private:
  static constexpr std::int64_t kChecksumStride = 8;

  SeededTensors tensors_;
  bool perturb_;
  std::vector<LayerItem> items_;
  std::vector<std::uint64_t> checksums_;
};

}  // namespace

std::unique_ptr<Workload> make_host_infer(const Options& options) {
  return std::make_unique<HostInfer>(options);
}

}  // namespace perfbench
