// export_network: lower any zoo network/variant and save it in the text
// model format (nets/serialize.hpp) — the artifact a downstream deployment
// flow would consume. Also demonstrates the load path and fold-level
// tracing of the heaviest layer.
//
// Usage: export_network [--net=v2] [--variant=half] [--size=64]
//        [--out=network.fusenet] [--trace-csv=]
#include <algorithm>
#include <cstdio>

#include "nets/serialize.hpp"
#include "sched/latency.hpp"
#include "systolic/mapping.hpp"
#include "systolic/trace.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_string("net", "v2", "network: v1|v2|v3s|v3l|mnas");
  flags.add_string("variant", "half", core::kNetworkVariantSpellings);
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.add_string("out", "network.fusenet", "output model file");
  flags.add_string("trace-csv", "",
                   "also write a fold trace of the heaviest layer here");
  flags.parse(argc, argv);

  const auto cfg = systolic::square_array(flags.get_int("size"));
  const sched::VariantBuild build = sched::build_variant(
      nets::parse_network_flag(flags.get_string("net")),
      core::parse_network_variant(flags.get_string("variant")), cfg);

  const std::string path = flags.get_string("out");
  nets::save_network(build.model, path);
  const nets::NetworkModel loaded = nets::load_network(path);
  FUSE_CHECK(loaded.total_macs() == build.model.total_macs())
      << "round-trip mismatch";
  std::printf("wrote %s: %zu layers, %s MACs, %s params (round-trip "
              "verified)\n",
              path.c_str(), loaded.layers.size(),
              util::with_commas(loaded.total_macs()).c_str(),
              util::with_commas(loaded.total_params()).c_str());

  const std::string trace_path = flags.get_string("trace-csv");
  if (!trace_path.empty()) {
    // Fold trace of the heaviest latency-bearing layer.
    const sched::NetworkLatency lat =
        sched::network_latency(build.model, cfg);
    std::size_t heaviest = 0;
    for (std::size_t i = 0; i < lat.per_layer.size(); ++i) {
      if (lat.per_layer[i].cycles > lat.per_layer[heaviest].cycles) {
        heaviest = i;
      }
    }
    const nn::LayerDesc& layer = build.model.layers[heaviest];
    const systolic::MemoryConfig mem;
    // Same lowering the latency model folds over; every repeat (e.g. each
    // depthwise channel) appears as its own run of folds.
    const systolic::FoldTrace trace =
        systolic::plan_trace(systolic::lower(layer, cfg), cfg, mem);
    systolic::write_fold_trace_csv(trace, trace_path);
    std::printf(
        "wrote %s: %zu folds of layer '%s' (%s cycles, peak fold %s, "
        "double-buffer SRAM %s)\n",
        trace_path.c_str(), trace.folds.size(), layer.name.c_str(),
        util::with_commas(trace.total_cycles).c_str(),
        util::format_bytes(trace.peak_fold_bytes()).c_str(),
        util::format_bytes(trace.double_buffer_bytes()).c_str());
  }
  return 0;
}
