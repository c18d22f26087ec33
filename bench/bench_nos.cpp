// Extension (paper §VI): Neural Operator Search over the per-slot
// {depthwise, FuSe-Full, FuSe-Half} space for every evaluated network, in
// both budget directions:
//   min-latency s.t. params <= 1.05x baseline  (what Table I's variants
//       approximate with uniform choices)
//   max-params  s.t. latency in the band between the all-Half and
//       all-Full latencies (the regime where operators genuinely compete)
//
// Usage: bench_nos [--size=64] [--csv]
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "nos/search.hpp"
#include "sched/latency.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.add_bool("csv", false, "also write bench_nos.csv");
  bench::SweepHarness harness(flags);
  flags.parse(argc, argv);

  const auto cfg = systolic::square_array(flags.get_int("size"));
  std::printf(
      "Neural Operator Search (paper §VI) on %s — B=depthwise, "
      "F=FuSe-Full, H=FuSe-Half\n\n",
      cfg.to_string().c_str());

  struct NetworkSearch {
    nos::NosResult min_latency;
    nos::NosResult max_params;
    double mid_band_ratio = 0.0;
  };
  const std::vector<nets::NetworkId> networks = nets::paper_networks();
  std::vector<NetworkSearch> searches;
  harness.start(flags);
  // Both budget directions per network.
  for (const nets::NetworkId id : networks) {
    NetworkSearch s;
    nos::NosConfig config;
    config.max_params_ratio = 1.05;
    s.min_latency = nos::search_operators(id, cfg, config);

    // Mid-band latency budget: halfway between all-Half and all-Full.
    const double half_ratio =
        1.0 / sched::speedup_vs_baseline(id, core::NetworkVariant::kFuseHalf,
                                         cfg);
    const double full_ratio =
        1.0 / sched::speedup_vs_baseline(id, core::NetworkVariant::kFuseFull,
                                         cfg);
    nos::NosLatencyBudgetConfig budget;
    budget.max_cycles_ratio = 0.5 * (half_ratio + full_ratio);
    s.mid_band_ratio = budget.max_cycles_ratio;
    s.max_params = nos::search_capacity(id, cfg, budget);
    searches.push_back(s);
  }
  harness.stop();

  util::TablePrinter table({"Network", "Objective", "Params", "Speedup",
                            "Per-slot assignment"});
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t i = 0; i < networks.size(); ++i) {
    const nets::NetworkId id = networks[i];
    const NetworkSearch& s = searches[i];
    table.add_row({nets::network_name(id), "min latency @ 1.05x params",
                   util::fixed(s.min_latency.params_ratio, 3) + "x",
                   util::fixed(s.min_latency.speedup, 2) + "x",
                   s.min_latency.modes_string()});
    csv_rows.push_back({nets::network_name(id), "min_latency",
                        util::fixed(s.min_latency.params_ratio, 4),
                        util::fixed(s.min_latency.speedup, 3),
                        s.min_latency.modes_string()});
    table.add_row({nets::network_name(id),
                   "max params @ " + util::fixed(s.mid_band_ratio, 3) +
                       "x latency",
                   util::fixed(s.max_params.params_ratio, 3) + "x",
                   util::fixed(s.max_params.speedup, 2) + "x",
                   s.max_params.modes_string()});
    csv_rows.push_back({nets::network_name(id), "max_params",
                        util::fixed(s.max_params.params_ratio, 4),
                        util::fixed(s.max_params.speedup, 3),
                        s.max_params.modes_string()});
    table.add_separator();
  }
  table.print(std::cout);
  harness.print_footer();
  std::printf(
      "\nmixed assignments in the capacity rows are the point: operator "
      "choice is a\nper-layer decision, which is what the paper's NOS "
      "proposal asks search to own.\n");

  if (flags.get_bool("csv")) {
    util::CsvWriter csv("bench_nos.csv");
    csv.write_header(
        {"network", "objective", "params_ratio", "speedup", "modes"});
    for (const auto& row : csv_rows) {
      csv.write_row(row);
    }
    std::printf("wrote bench_nos.csv\n");
  }
  return 0;
}
