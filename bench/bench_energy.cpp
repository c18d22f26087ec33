// Extension: energy per inference (the quantity edge accelerators
// ultimately optimize, motivating the paper's performance-per-watt
// framing). Decomposes each network/variant into MAC, idle, SRAM and DRAM
// energy under the 45 nm model. The FuSe variants' energy win comes mostly
// from the idle term — the baseline's under-utilized array clocks all
// S*S PEs while one column computes the depthwise layers.
//
// Usage: bench_energy [--size=64] [--csv]
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
  flags.add_bool("csv", false, "also write bench_energy.csv");
  flags.parse(argc, argv);

  const auto cfg = systolic::square_array(flags.get_int("size"));
  const systolic::MemoryConfig mem;
  const hw::EnergyModel energy;

  std::printf(
      "Energy per inference (45 nm model, FP16, %s array, %g B/cycle "
      "DRAM)\n\n",
      cfg.to_string().c_str(), mem.dram_bytes_per_cycle);

  util::TablePrinter table({"Network", "Variant", "MAC (uJ)", "idle (uJ)",
                            "SRAM (uJ)", "DRAM (uJ)", "total (uJ)",
                            "vs base"});
  std::vector<std::vector<std::string>> csv_rows;
  for (nets::NetworkId id : nets::paper_networks()) {
    double base_total = 0.0;
    for (core::NetworkVariant variant :
         {core::NetworkVariant::kBaseline, core::NetworkVariant::kFuseFull,
          core::NetworkVariant::kFuseHalf}) {
      const sched::VariantBuild build =
          sched::build_variant(id, variant, cfg);
      const hw::EnergyReport report =
          sched::network_energy(build.model, cfg, mem, energy);
      if (variant == core::NetworkVariant::kBaseline) {
        base_total = report.total_nj();
      }
      table.add_row(
          {nets::network_name(id), core::network_variant_name(variant),
           util::fixed(report.mac_nj / 1e3, 1),
           util::fixed(report.idle_nj / 1e3, 1),
           util::fixed(report.sram_nj / 1e3, 1),
           util::fixed(report.dram_nj / 1e3, 1),
           util::fixed(report.total_nj() / 1e3, 1),
           util::fixed(base_total / report.total_nj(), 2) + "x"});
      csv_rows.push_back(
          {nets::network_name(id), core::network_variant_name(variant),
           util::fixed(report.mac_nj, 1), util::fixed(report.idle_nj, 1),
           util::fixed(report.sram_nj, 1), util::fixed(report.dram_nj, 1),
           util::fixed(report.total_nj(), 1)});
    }
    table.add_separator();
  }
  table.print(std::cout);

  if (flags.get_bool("csv")) {
    util::CsvWriter csv("bench_energy.csv");
    csv.write_header({"network", "variant", "mac_nj", "idle_nj", "sram_nj",
                      "dram_nj", "total_nj"});
    for (const auto& row : csv_rows) {
      csv.write_row(row);
    }
    std::printf("\nwrote bench_energy.csv\n");
  }
  return 0;
}
