// Reproduces Fig. 8(b): layer-wise speedup of the FuSe-Full transform for
// MobileNet-V2 on a 64x64 array. Paper range: 2.48x-9.38x, with initial
// (large-feature-map) layers gaining the most.
//
// Usage: bench_fig8b_layerwise [--size=64] [--net=v2] [--variant=full]
//        [--csv]
#include <cstdio>
#include <iostream>

#include "sched/report.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.add_string("net", "v2", "network: v1|v2|v3s|v3l|mnas");
  flags.add_string("variant", "full",
                   "replacement variant: [fuse_]full|[fuse_]half");
  flags.add_bool("csv", false, "also write bench_fig8b.csv");
  flags.parse(argc, argv);

  const auto cfg = systolic::square_array(flags.get_int("size"));
  const nets::NetworkId id = nets::parse_network_flag(flags.get_string("net"));
  const core::FuseMode mode =
      core::parse_fuse_mode(flags.get_string("variant"));
  std::printf(
      "Fig. 8(b) reproduction — per-depthwise-block speedup, %s "
      "FuSe-%s on %s (paper: 2.48x-9.38x for V2 Full)\n\n",
      nets::network_name(id).c_str(),
      core::fuse_variant_name(core::fuse_mode_variant(mode)).c_str(),
      cfg.to_string().c_str());

  const auto slots = sched::layerwise_speedup(id, mode, cfg);
  util::TablePrinter table({"Slot", "Layer", "Input", "Channels",
                            "Base cycles", "FuSe cycles", "Speedup"});
  double min_speedup = 1e30, max_speedup = 0.0;
  for (const auto& s : slots) {
    min_speedup = std::min(min_speedup, s.speedup);
    max_speedup = std::max(max_speedup, s.speedup);
    table.add_row({std::to_string(s.slot), s.name,
                   std::to_string(s.in_h) + "x" + std::to_string(s.in_w),
                   std::to_string(s.channels),
                   util::with_commas(s.baseline_cycles),
                   util::with_commas(s.fused_cycles),
                   util::fixed(s.speedup, 2) + "x"});
  }
  table.print(std::cout);
  std::printf("\nrange: %.2fx - %.2fx (paper: 2.48x - 9.38x)\n",
              min_speedup, max_speedup);

  if (flags.get_bool("csv")) {
    util::CsvWriter csv("bench_fig8b.csv");
    csv.write_header({"slot", "layer", "in_h", "channels", "base_cycles",
                      "fuse_cycles", "speedup"});
    for (const auto& s : slots) {
      csv.write_row({std::to_string(s.slot), s.name, std::to_string(s.in_h),
                     std::to_string(s.channels),
                     std::to_string(s.baseline_cycles),
                     std::to_string(s.fused_cycles),
                     util::fixed(s.speedup, 3)});
    }
    std::printf("wrote bench_fig8b.csv\n");
  }
  return 0;
}
