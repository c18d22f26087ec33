// Reproduces Fig. 8(d): the ablation of FuSe speedup vs systolic-array
// size. Paper claims: speedup increases with array size, and the larger,
// older MobileNet-V1 gains more on big arrays than MobileNet-V3-Small.
//
// Usage: bench_fig8d_scaling [--variant=half] [--csv]
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "sched/report.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_string("variant", "half", core::kNetworkVariantSpellings);
  flags.add_bool("csv", false, "also write bench_fig8d.csv");
  bench::add_telemetry_flags(flags);
  flags.parse(argc, argv);
  bench::TelemetryScope telemetry(flags);

  const core::NetworkVariant variant =
      core::parse_network_variant(flags.get_string("variant"));
  const std::vector<std::int64_t> sizes = {8, 16, 32, 64, 128};

  std::printf(
      "Fig. 8(d) reproduction — %s speedup vs array size "
      "(expect: monotone growth; V1 > V3-Small at 128)\n\n",
      core::network_variant_name(variant).c_str());

  std::vector<std::string> header = {"Network"};
  for (std::int64_t s : sizes) {
    header.push_back(std::to_string(s) + "x" + std::to_string(s));
  }
  const auto networks = nets::paper_networks();
  std::vector<std::vector<sched::ScalingPoint>> sweeps;
  bench::SweepHarness harness;  // starts the wall clock
  for (const nets::NetworkId id : networks) {
    sweeps.push_back(sched::scaling_sweep(id, variant, sizes));
  }
  harness.stop();

  util::TablePrinter table(header);
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t n = 0; n < networks.size(); ++n) {
    std::vector<std::string> row = {nets::network_name(networks[n])};
    std::vector<std::string> csv_row = row;
    for (const auto& p : sweeps[n]) {
      row.push_back(util::fixed(p.speedup, 2) + "x");
      csv_row.push_back(util::fixed(p.speedup, 3));
    }
    table.add_row(row);
    csv_rows.push_back(csv_row);
  }
  table.print(std::cout);
  harness.print_footer();

  if (flags.get_bool("csv")) {
    util::CsvWriter csv("bench_fig8d.csv");
    std::vector<std::string> csv_header = {"network"};
    for (std::int64_t s : sizes) {
      csv_header.push_back("s" + std::to_string(s));
    }
    csv.write_header(csv_header);
    for (const auto& row : csv_rows) {
      csv.write_row(row);
    }
    std::printf("\nwrote bench_fig8d.csv\n");
  }
  return 0;
}
