// Reproduces the introduction's motivating observation: MobileNet-V2 has
// ~12x fewer MACs than ResNet-50, yet runs only ~1.3x faster on a 32x32
// systolic array — the incommensurate scaling that motivates FuSeConv.
//
// Usage: bench_intro_resnet [--size=32]
#include <cstdio>
#include <iostream>

#include "sched/latency.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_int("size", 32, "systolic array size (SxS)");
  flags.parse(argc, argv);

  const auto cfg = systolic::square_array(flags.get_int("size"));
  std::printf(
      "Intro claim reproduction — ResNet-50 vs MobileNet-V2 on %s\n"
      "paper: V2 has 12x fewer MACs but runs only ~1.3x faster\n\n",
      cfg.to_string().c_str());

  const nets::NetworkModel r50 = nets::resnet50();
  const nets::NetworkModel v2 =
      nets::build_network(nets::NetworkId::kMobileNetV2);
  const sched::NetworkLatency lat_r50 = sched::network_latency(r50, cfg);
  const sched::NetworkLatency lat_v2 = sched::network_latency(v2, cfg);

  util::TablePrinter table(
      {"Network", "MACs (M)", "Cycles", "Utilization"});
  table.add_row({"ResNet-50",
                 util::fixed(static_cast<double>(r50.total_macs()) / 1e6, 0),
                 util::with_commas(lat_r50.total_cycles),
                 util::fixed(100.0 * lat_r50.utilization(cfg), 1) + "%"});
  table.add_row({"MobileNet-V2",
                 util::fixed(static_cast<double>(v2.total_macs()) / 1e6, 0),
                 util::with_commas(lat_v2.total_cycles),
                 util::fixed(100.0 * lat_v2.utilization(cfg), 1) + "%"});
  table.print(std::cout);

  const double mac_ratio = static_cast<double>(r50.total_macs()) /
                           static_cast<double>(v2.total_macs());
  const double speed_ratio = static_cast<double>(lat_r50.total_cycles) /
                             static_cast<double>(lat_v2.total_cycles);
  std::printf(
      "\nMAC ratio R50/V2:   %.1fx (paper: ~12x)\n"
      "speed ratio R50/V2: %.2fx (paper: ~1.3x) — the incommensurate "
      "scaling\n",
      mac_ratio, speed_ratio);

  // And the punchline: with the FuSe transform, V2 pulls far ahead.
  const sched::VariantBuild fused = sched::build_variant(
      nets::NetworkId::kMobileNetV2, core::NetworkVariant::kFuseFull, cfg);
  const auto lat_fused = sched::network_latency(fused.model, cfg);
  std::printf(
      "after FuSe-Full transform: V2 is %.1fx faster than ResNet-50\n",
      static_cast<double>(lat_r50.total_cycles) /
          static_cast<double>(lat_fused.total_cycles));
  return 0;
}
