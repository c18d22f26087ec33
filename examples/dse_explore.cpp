// dse_explore: the configurable-array design-space explorer. Sweeps the
// full ArrayConfig axis grid (array shape at the 4096-PE budget,
// broadcast links, inter-PE pipelining, datapath width, SRAM capacity)
// over the five paper networks x {baseline, FuSe-Full, FuSe-Half},
// scoring every candidate with the plan-free closed-form evaluator and
// printing the Pareto frontier over {latency, area, power}.
//
// This is the generalization of examples/operator_search (which explores
// the OPERATOR axis on a fixed array) and bench/bench_pareto (which
// explores square sizes on fixed axes): here the array itself is the
// design variable. Every number printed is deterministic.
//
// Usage: dse_explore [--csv]
//   --csv writes dse_explore.csv: the full 180-point table with a
//   `frontier` 0/1 column (docs/design_space.md describes the schema).
#include <cstdio>
#include <iostream>

#include "dse/explore.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_bool("csv", false, "also write dse_explore.csv");
  flags.parse(argc, argv);

  const dse::DseAxes axes;
  const std::vector<nets::NetworkModel> workload =
      dse::default_dse_workload();

  std::printf(
      "Design-space exploration: %zu-model workload, fused schedule, "
      "closed-form evaluator\n\n",
      workload.size());

  const dse::ExploreResult result = dse::explore(axes, workload);

  util::TablePrinter table({"Config", "Latency (ms)", "Area (mm^2)",
                            "Power (W)", "Bound cycles"});
  for (const dse::ParetoEntry& entry : result.front.entries()) {
    const dse::DesignPoint& point = result.points[entry.id];
    table.add_row({point.label(), util::fixed(entry.obj.latency_ms, 3),
                   util::fixed(entry.obj.area_mm2, 2),
                   util::fixed(entry.obj.power_w, 2),
                   std::to_string(result.bound_cycles[entry.id])});
  }
  table.print(std::cout);

  std::printf(
      "\nPareto frontier over {latency, area, power}: %zu of %zu "
      "configurations survive;\n%llu dominated points pruned. Latency is "
      "the workload's roofline bound at each\nconfiguration's post-derate "
      "clock — transparent modes trade clock for skew/drain\ncycles, "
      "narrower datapaths trade silicon for operand bandwidth.\n",
      result.front.entries().size(), result.points.size(),
      static_cast<unsigned long long>(result.front.pruned()));

  if (flags.get_bool("csv")) {
    dse::write_explore_csv(result, "dse_explore.csv");
    std::printf("wrote dse_explore.csv\n");
  }
  return 0;
}
