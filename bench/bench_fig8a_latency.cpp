// Reproduces Fig. 8(a): absolute latency (cycles, and milliseconds at the
// configured clock) of every network/variant on a 64x64 array.
//
// Usage: bench_fig8a_latency [--size=64] [--freq-mhz=700] [--csv]
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
  flags.add_double("freq-mhz", 700.0, "clock for cycle->time conversion");
  flags.add_bool("csv", false, "also write bench_fig8a.csv");
  flags.parse(argc, argv);

  auto cfg = systolic::square_array(flags.get_int("size"));
  cfg.freq_mhz = flags.get_double("freq-mhz");
  std::printf("Fig. 8(a) reproduction — latency on a %s array @ %.0f MHz\n\n",
              cfg.to_string().c_str(), cfg.freq_mhz);

  util::TablePrinter table(
      {"Network", "Variant", "Cycles", "Latency (ms)", "Utilization"});
  std::vector<std::vector<std::string>> csv_rows;
  for (nets::NetworkId id : nets::paper_networks()) {
    for (core::NetworkVariant variant : core::all_network_variants()) {
      const sched::VariantBuild build = sched::build_variant(id, variant, cfg);
      const sched::NetworkLatency lat =
          sched::network_latency(build.model, cfg);
      const double ms = static_cast<double>(lat.total_cycles) /
                        (cfg.freq_mhz * 1e3);
      table.add_row({nets::network_name(id),
                     core::network_variant_name(variant),
                     util::with_commas(lat.total_cycles),
                     util::fixed(ms, 3),
                     util::fixed(100.0 * lat.utilization(cfg), 1) + "%"});
      csv_rows.push_back({nets::network_name(id),
                          core::network_variant_name(variant),
                          std::to_string(lat.total_cycles),
                          util::fixed(ms, 4)});
    }
    table.add_separator();
  }
  table.print(std::cout);

  if (flags.get_bool("csv")) {
    util::CsvWriter csv("bench_fig8a.csv");
    csv.write_header({"network", "variant", "cycles", "latency_ms"});
    for (const auto& row : csv_rows) {
      csv.write_row(row);
    }
    std::printf("\nwrote bench_fig8a.csv\n");
  }
  return 0;
}
