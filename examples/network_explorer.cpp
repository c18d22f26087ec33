// network_explorer: per-layer inspection of any zoo network / variant on
// any array size — the tool you reach for to understand where the cycles
// go.
//
// Usage: network_explorer [--net=v2] [--variant=baseline] [--size=64]
//        [--top=0]
//   --net      v1|v2|v3s|v3l|mnas|resnet50
//   --variant  baseline|full|half|full50|half50
//   --top      show only the N most expensive layers (0 = all)
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "sched/latency.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_string("net", "v2", "network: v1|v2|v3s|v3l|mnas|resnet50");
  flags.add_string("variant", "baseline", core::kNetworkVariantSpellings);
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.add_int("top", 0, "show only the N most expensive layers (0=all)");
  flags.parse(argc, argv);

  const nets::NetworkId id = nets::parse_network_flag(flags.get_string("net"));
  const core::NetworkVariant variant =
      core::parse_network_variant(flags.get_string("variant"));
  const auto cfg = systolic::square_array(flags.get_int("size"));
  FUSE_CHECK(id != nets::NetworkId::kResNet50 ||
             variant == core::NetworkVariant::kBaseline)
      << "ResNet-50 has no depthwise layers; only --variant=baseline";

  const sched::VariantBuild build = sched::build_variant(id, variant, cfg);
  const sched::NetworkLatency lat = sched::network_latency(build.model, cfg);

  std::printf("%s %s on %s — %s MACs, %s params, %s cycles\n\n",
              build.model.name.c_str(),
              core::network_variant_name(variant).c_str(),
              cfg.to_string().c_str(),
              util::with_commas(build.model.total_macs()).c_str(),
              util::with_commas(build.model.total_params()).c_str(),
              util::with_commas(lat.total_cycles).c_str());

  // Rank layers by cycles if --top given.
  std::vector<std::size_t> order(build.model.layers.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  const std::int64_t top = flags.get_int("top");
  if (top > 0) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return lat.per_layer[a].cycles > lat.per_layer[b].cycles;
    });
    order.resize(std::min<std::size_t>(order.size(),
                                       static_cast<std::size_t>(top)));
  }

  util::TablePrinter table({"Layer", "Kind", "Geometry", "MACs", "Cycles",
                            "% of total", "Util"});
  for (std::size_t i : order) {
    const nn::LayerDesc& layer = build.model.layers[i];
    const auto& est = lat.per_layer[i];
    if (top == 0 && !layer.counts_for_latency() && layer.macs() == 0) {
      continue;  // hide glue ops in the full listing
    }
    table.add_row(
        {layer.name, nn::op_kind_name(layer.kind),
         std::to_string(layer.in_c) + "x" + std::to_string(layer.in_h) +
             "x" + std::to_string(layer.in_w) + " -> " +
             std::to_string(layer.out_c) + "x" + std::to_string(layer.out_h) +
             "x" + std::to_string(layer.out_w),
         util::with_commas(layer.macs()), util::with_commas(est.cycles),
         util::fixed(100.0 * static_cast<double>(est.cycles) /
                         static_cast<double>(lat.total_cycles),
                     1) + "%",
         util::fixed(100.0 * est.utilization(), 1) + "%"});
  }
  table.print(std::cout);
  return 0;
}
