// Ablation: when does the paper's compute-bound assumption (§V-A3) hold?
// Sweeps DRAM bandwidth and reports the FuSe-Half speedup under the
// roofline model max(compute, memory) per layer. At generous bandwidth the
// speedup equals the paper's compute-only number; as bandwidth shrinks the
// networks go memory-bound and the advantage compresses (the FuSe variant
// moves similar bytes but far fewer compute cycles, so memory becomes its
// ceiling first).
//
// Usage: bench_ablation_memory [--size=64] [--net=v2] [--csv]
#include <cstdio>
#include <iostream>

#include "sched/latency.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.add_bool("csv", false, "also write bench_ablation_memory.csv");
  flags.parse(argc, argv);

  const auto cfg = systolic::square_array(flags.get_int("size"));
  const double bandwidths[] = {1, 2, 4, 8, 16, 32, 64, 1e9};

  std::printf(
      "Ablation: FuSe-Half roofline speedup vs DRAM bandwidth "
      "(bytes/cycle, FP16 operands, %s array)\n"
      "rightmost column (inf) reproduces the paper's compute-bound "
      "assumption\n\n",
      cfg.to_string().c_str());

  util::TablePrinter table({"Network", "1", "2", "4", "8", "16", "32",
                            "64", "inf"});
  std::vector<std::vector<std::string>> csv_rows;
  for (nets::NetworkId id : nets::paper_networks()) {
    std::vector<std::string> row = {nets::network_name(id)};
    std::vector<std::string> csv_row = row;
    for (double bw : bandwidths) {
      systolic::MemoryConfig mem;
      mem.dram_bytes_per_cycle = bw;
      const double speedup = sched::roofline_speedup(
          id, core::NetworkVariant::kFuseHalf, cfg, mem);
      row.push_back(util::fixed(speedup, 2) + "x");
      csv_row.push_back(util::fixed(speedup, 3));
    }
    table.add_row(row);
    csv_rows.push_back(csv_row);
  }
  table.print(std::cout);

  // Where does the baseline itself become memory bound?
  systolic::MemoryConfig mem;  // default 16 B/cycle
  const auto v2 = nets::build_network(nets::NetworkId::kMobileNetV2);
  const auto roofline = sched::network_roofline(v2, cfg, mem);
  std::printf(
      "\nMobileNet-V2 baseline at 16 B/cycle: compute %s cy, memory %s cy "
      "(%.1f MB moved), %d/%zu latency-bearing layers memory-bound\n",
      util::with_commas(roofline.compute_cycles).c_str(),
      util::with_commas(roofline.memory_cycles).c_str(),
      static_cast<double>(roofline.total_bytes) / 1e6,
      roofline.memory_bound_layers, v2.layers.size());

  if (flags.get_bool("csv")) {
    util::CsvWriter csv("bench_ablation_memory.csv");
    csv.write_header({"network", "bw1", "bw2", "bw4", "bw8", "bw16",
                      "bw32", "bw64", "inf"});
    for (const auto& row : csv_rows) {
      csv.write_row(row);
    }
    std::printf("wrote bench_ablation_memory.csv\n");
  }
  return 0;
}
