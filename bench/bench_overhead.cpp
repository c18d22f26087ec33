// Reproduces §V-B5: area/power overhead of the per-row weight-broadcast
// links. The paper synthesized a 32x32 array (Bluespec -> NanGate 45 nm,
// Synopsys DC) and measured 4.35% area / 2.25% power; this repo substitutes
// a calibrated component-level model (see DESIGN.md) and additionally
// sweeps the overhead across array sizes.
//
// Usage: bench_overhead [--csv]
#include <cstdio>
#include <iostream>

#include "hw/area_power.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_bool("csv", false, "also write bench_overhead.csv");
  flags.parse(argc, argv);

  const hw::PeComponentModel model = hw::nangate45_model();
  std::printf(
      "Broadcast-link overhead (45 nm component model)\n"
      "paper reference @32x32: area +4.35%%, power +2.25%%\n\n");

  util::TablePrinter table({"Array", "Area (mm^2)", "Power (mW)",
                            "Area overhead", "Power overhead"});
  std::vector<std::vector<std::string>> csv_rows;
  for (std::int64_t size : {8, 16, 32, 64, 128}) {
    const hw::ArrayHwReport with =
        hw::array_hw(systolic::square_array(size, true), model);
    const hw::OverheadReport overhead = hw::broadcast_overhead(size, model);
    table.add_row({std::to_string(size) + "x" + std::to_string(size),
                   util::fixed(with.area_mm2, 3),
                   util::fixed(with.power_mw, 0),
                   "+" + util::fixed(overhead.area_pct, 2) + "%",
                   "+" + util::fixed(overhead.power_pct, 2) + "%"});
    csv_rows.push_back({std::to_string(size),
                        util::fixed(with.area_mm2, 4),
                        util::fixed(with.power_mw, 1),
                        util::fixed(overhead.area_pct, 3),
                        util::fixed(overhead.power_pct, 3)});
  }
  table.print(std::cout);

  const hw::OverheadReport at32 = hw::broadcast_overhead(32, model);
  std::printf("\nmeasured @32x32: area +%.2f%% (paper 4.35%%), power "
              "+%.2f%% (paper 2.25%%)\n",
              at32.area_pct, at32.power_pct);

  if (flags.get_bool("csv")) {
    util::CsvWriter csv("bench_overhead.csv");
    csv.write_header({"size", "area_mm2", "power_mw", "area_overhead_pct",
                      "power_overhead_pct"});
    for (const auto& row : csv_rows) {
      csv.write_row(row);
    }
    std::printf("wrote bench_overhead.csv\n");
  }
  return 0;
}
