// Reproduces Fig. 8(c): distribution of latency across operator classes
// for baseline and FuSe networks. The paper's qualitative claim: baseline
// latency is dominated by depthwise convolutions; after the transform the
// distribution shifts to pointwise convolutions, with the FuSe operators
// themselves a small fraction (4-11%).
//
// Usage: bench_fig8c_opdist [--size=64] [--csv]
#include <cstdio>
#include <iostream>

#include "sched/report.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;
using sched::OperatorClass;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.add_bool("csv", false, "also write bench_fig8c.csv");
  flags.parse(argc, argv);

  const auto cfg = systolic::square_array(flags.get_int("size"));
  std::printf(
      "Fig. 8(c) reproduction — operator latency distribution on %s\n"
      "(note: Table I's speedups imply a higher baseline depthwise share "
      "than Fig. 8(c)'s 30-50%% label; see EXPERIMENTS.md)\n\n",
      cfg.to_string().c_str());

  const OperatorClass classes[] = {
      OperatorClass::kStandardConv, OperatorClass::kDepthwise,
      OperatorClass::kPointwise, OperatorClass::kFuse,
      OperatorClass::kFcAndSe};

  util::TablePrinter table({"Network", "Variant", "conv", "depthwise",
                            "pointwise", "fuse", "fc+se"});
  std::vector<std::vector<std::string>> csv_rows;
  for (nets::NetworkId id : nets::paper_networks()) {
    for (core::NetworkVariant variant :
         {core::NetworkVariant::kBaseline, core::NetworkVariant::kFuseFull,
          core::NetworkVariant::kFuseHalf}) {
      const sched::VariantBuild build =
          sched::build_variant(id, variant, cfg);
      const sched::OperatorBreakdown b =
          sched::operator_breakdown(build.model, cfg);
      std::vector<std::string> row = {
          nets::network_name(id), core::network_variant_name(variant)};
      std::vector<std::string> csv_row = row;
      for (OperatorClass cls : classes) {
        const std::string pct =
            util::fixed(100.0 * b.fraction(cls), 1) + "%";
        row.push_back(pct);
        csv_row.push_back(util::fixed(b.fraction(cls), 4));
      }
      table.add_row(row);
      csv_rows.push_back(csv_row);
    }
    table.add_separator();
  }
  table.print(std::cout);

  if (flags.get_bool("csv")) {
    util::CsvWriter csv("bench_fig8c.csv");
    csv.write_header({"network", "variant", "conv", "depthwise",
                      "pointwise", "fuse", "fc_se"});
    for (const auto& row : csv_rows) {
      csv.write_row(row);
    }
    std::printf("\nwrote bench_fig8c.csv\n");
  }
  return 0;
}
