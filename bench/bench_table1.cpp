// Reproduces Table I: ImageNet accuracy (paper-reported; see DESIGN.md for
// the training substitution), MACs, params, and speedup on a 64x64
// output-stationary systolic array for 5 networks x 5 variants.
//
// Usage: bench_table1 [--size=64] [--csv]
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
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.add_bool("csv", false, "also write bench_table1.csv");
  bench::SweepHarness harness(flags);
  flags.parse(argc, argv);

  const auto cfg = systolic::square_array(flags.get_int("size"));
  std::printf("Table I reproduction — %s array, output-stationary\n",
              cfg.to_string().c_str());
  std::printf(
      "(accuracy column = paper-reported ImageNet top-1; this repo's "
      "synthetic-accuracy study is bench_accuracy_synth)\n\n");

  harness.start(flags);
  const auto rows = sched::table1_rows(cfg);
  harness.stop();

  util::TablePrinter table({"Network", "Acc% (paper)", "MACs(M)",
                            "paper", "Params(M)", "paper", "Speedup",
                            "paper"});
  nets::NetworkId last = rows.front().network;
  for (const auto& row : rows) {
    if (row.network != last) {
      table.add_separator();
      last = row.network;
    }
    const std::string label =
        nets::network_name(row.network) +
        (row.variant == core::NetworkVariant::kBaseline
             ? ""
             : " " + core::network_variant_name(row.variant));
    table.add_row({label, util::fixed(row.paper_accuracy, 2),
                   util::fixed(static_cast<double>(row.macs) / 1e6, 0),
                   util::fixed(row.paper_macs_millions, 0),
                   util::fixed(static_cast<double>(row.params) / 1e6, 2),
                   util::fixed(row.paper_params_millions, 2),
                   util::fixed(row.speedup, 2) + "x",
                   util::fixed(row.paper_speedup, 2) + "x"});
  }
  table.print(std::cout);
  harness.print_footer();

  if (flags.get_bool("csv")) {
    util::CsvWriter csv("bench_table1.csv");
    csv.write_header({"network", "variant", "macs", "params", "cycles",
                      "speedup", "paper_accuracy", "paper_macs_m",
                      "paper_params_m", "paper_speedup"});
    for (const auto& row : rows) {
      csv.write_row({nets::network_name(row.network),
                     core::network_variant_name(row.variant),
                     std::to_string(row.macs), std::to_string(row.params),
                     std::to_string(row.cycles),
                     util::fixed(row.speedup, 3),
                     util::fixed(row.paper_accuracy, 2),
                     util::fixed(row.paper_macs_millions, 1),
                     util::fixed(row.paper_params_millions, 2),
                     util::fixed(row.paper_speedup, 2)});
    }
    std::printf("\nwrote bench_table1.csv\n");
  }
  return 0;
}
