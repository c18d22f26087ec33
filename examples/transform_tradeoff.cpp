// transform_tradeoff: the design-space view behind the paper's 50%
// variants. Sweeps the fraction of depthwise blocks replaced (greedy, by
// latency savings) from 0% to 100% and prints the MACs/params/speedup
// frontier — the "sensitive design trade-off between operations/latency
// and accuracy" the paper points at.
//
// Usage: transform_tradeoff [--net=v2] [--variant=half] [--size=64]
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <numeric>

#include "sched/latency.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_string("net", "v2", "network: v1|v2|v3s|v3l|mnas");
  flags.add_string("variant", "half", "[fuse_]full|[fuse_]half");
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.parse(argc, argv);

  const nets::NetworkId id = nets::parse_network_flag(flags.get_string("net"));
  const core::FuseMode mode =
      core::parse_fuse_mode(flags.get_string("variant"));
  const auto cfg = systolic::square_array(flags.get_int("size"));

  const int slots = nets::num_fuse_slots(id);
  const auto savings = sched::slot_savings(id, mode, cfg);
  std::vector<int> order(savings.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return savings[static_cast<std::size_t>(a)] >
           savings[static_cast<std::size_t>(b)];
  });

  const auto baseline = nets::build_network(id);
  const std::uint64_t base_cycles =
      sched::network_latency(baseline, cfg).total_cycles;

  std::printf(
      "FuSe-%s replacement frontier for %s on %s (greedy by latency "
      "savings)\n\n",
      core::fuse_variant_name(core::fuse_mode_variant(mode)).c_str(),
      nets::network_name(id).c_str(), cfg.to_string().c_str());

  util::TablePrinter table({"Replaced", "Fraction", "MACs (M)",
                            "Params (M)", "Speedup"});
  std::vector<core::FuseMode> modes =
      core::uniform_modes(slots, core::FuseMode::kBaseline);
  for (int replaced = 0; replaced <= slots; ++replaced) {
    if (replaced > 0) {
      modes[static_cast<std::size_t>(
          order[static_cast<std::size_t>(replaced - 1)])] = mode;
    }
    const auto model = nets::build_network(id, modes);
    const std::uint64_t cycles =
        sched::network_latency(model, cfg).total_cycles;
    table.add_row(
        {std::to_string(replaced) + "/" + std::to_string(slots),
         util::fixed(100.0 * replaced / slots, 0) + "%",
         util::fixed(static_cast<double>(model.total_macs()) / 1e6, 0),
         util::fixed(static_cast<double>(model.total_params()) / 1e6, 2),
         util::fixed(static_cast<double>(base_cycles) /
                         static_cast<double>(cycles),
                     2) + "x"});
  }
  table.print(std::cout);
  std::printf(
      "\nthe paper's Full-50%%/Half-50%% rows are the %d/%d point of this "
      "frontier.\n",
      (slots + 1) / 2, slots);
  return 0;
}
