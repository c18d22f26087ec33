// Ablation: are the proposed per-row weight-broadcast links actually
// necessary? Runs every network's FuSe-Half variant on arrays with and
// without the links (without them the 1-D convolutions degrade to the
// depthwise-style single-column mapping). This isolates the paper's
// HW/SW co-design claim: the operator alone is NOT enough — the dataflow
// modification is what unlocks the speedup.
//
// Usage: bench_ablation_broadcast [--size=64] [--csv]
#include <cstdio>
#include <iostream>

#include "sched/latency.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.add_bool("csv", false, "also write bench_ablation_broadcast.csv");
  flags.parse(argc, argv);

  const std::int64_t size = flags.get_int("size");
  const auto with = systolic::square_array(size, /*broadcast=*/true);
  const auto without = systolic::square_array(size, /*broadcast=*/false);

  std::printf(
      "Ablation: FuSe-Half speedup with vs without broadcast links "
      "(%lldx%lld array)\n\n",
      static_cast<long long>(size), static_cast<long long>(size));

  util::TablePrinter table({"Network", "baseline cycles",
                            "FuSe+links", "speedup",
                            "FuSe no-links", "speedup"});
  std::vector<std::vector<std::string>> csv_rows;
  for (nets::NetworkId id : nets::paper_networks()) {
    const auto baseline = nets::build_network(id);
    const int slots = baseline.num_slots;
    const auto fused = nets::build_network(
        id, core::uniform_modes(slots, core::FuseMode::kHalf));

    const std::uint64_t base_cycles =
        sched::network_latency(baseline, with).total_cycles;
    const std::uint64_t with_cycles =
        sched::network_latency(fused, with).total_cycles;
    const std::uint64_t without_cycles =
        sched::network_latency(fused, without).total_cycles;

    const double speedup_with = static_cast<double>(base_cycles) /
                                static_cast<double>(with_cycles);
    const double speedup_without = static_cast<double>(base_cycles) /
                                   static_cast<double>(without_cycles);
    table.add_row({nets::network_name(id), util::with_commas(base_cycles),
                   util::with_commas(with_cycles),
                   util::fixed(speedup_with, 2) + "x",
                   util::with_commas(without_cycles),
                   util::fixed(speedup_without, 2) + "x"});
    csv_rows.push_back({nets::network_name(id),
                        std::to_string(base_cycles),
                        std::to_string(with_cycles),
                        util::fixed(speedup_with, 3),
                        std::to_string(without_cycles),
                        util::fixed(speedup_without, 3)});
  }
  table.print(std::cout);
  std::printf(
      "\nconclusion: without the broadcast links the FuSe operator is no "
      "faster than\n(or even slower than) the depthwise baseline — the "
      "operator and the dataflow\nmodification only work together, which "
      "is the co-design argument of §IV.\n");

  if (flags.get_bool("csv")) {
    util::CsvWriter csv("bench_ablation_broadcast.csv");
    csv.write_header({"network", "baseline_cycles", "fuse_links_cycles",
                      "speedup_links", "fuse_nolinks_cycles",
                      "speedup_nolinks"});
    for (const auto& row : csv_rows) {
      csv.write_row(row);
    }
    std::printf("wrote bench_ablation_broadcast.csv\n");
  }
  return 0;
}
