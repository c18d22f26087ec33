// Extension: the MobileNet papers' second knob — input resolution. Sweeps
// the square input size for V1/V2 and reports baseline latency and the
// FuSe speedups. The result: the speedup is essentially flat across
// resolutions (both the depthwise pathology and the FuSe win scale with
// the feature-map area), so the operator substitution is robust to this
// deployment knob too.
//
// Usage: bench_resolution [--size=64] [--csv]
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "sched/latency.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.add_bool("csv", false, "also write bench_resolution.csv");
  bench::SweepHarness harness(flags);
  flags.parse(argc, argv);

  const auto cfg = systolic::square_array(flags.get_int("size"));
  const std::vector<nets::NetworkId> networks = {
      nets::NetworkId::kMobileNetV1, nets::NetworkId::kMobileNetV2};
  const std::vector<std::int64_t> resolutions = {128, 160, 192, 224};

  std::printf(
      "Input-resolution sweep on %s — FuSe speedups across the second "
      "MobileNet knob\n\n",
      cfg.to_string().c_str());

  struct Point {
    std::uint64_t macs = 0;
    std::uint64_t base_cycles = 0;
    double full_speedup = 0.0;
    double half_speedup = 0.0;
  };
  const auto cycles = [&cfg](const nets::NetworkModel& model) {
    return sched::network_latency(model, cfg).total_cycles;
  };
  std::vector<Point> points;  // network-major, resolution-minor
  harness.start(flags);
  for (const nets::NetworkId id : networks) {
    const int slots = nets::num_fuse_slots(id);
    for (const std::int64_t res : resolutions) {
      const auto baseline = nets::build_network_scaled(id, 1.0, {}, res);
      const auto full = nets::build_network_scaled(
          id, 1.0, core::uniform_modes(slots, core::FuseMode::kFull), res);
      const auto half = nets::build_network_scaled(
          id, 1.0, core::uniform_modes(slots, core::FuseMode::kHalf), res);
      Point p;
      p.macs = baseline.total_macs();
      p.base_cycles = cycles(baseline);
      p.full_speedup = static_cast<double>(p.base_cycles) /
                       static_cast<double>(cycles(full));
      p.half_speedup = static_cast<double>(p.base_cycles) /
                       static_cast<double>(cycles(half));
      points.push_back(p);
    }
  }
  harness.stop();

  util::TablePrinter table({"Network", "Input", "MACs (M)",
                            "Base cycles", "Full speedup", "Half speedup"});
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t n = 0; n < networks.size(); ++n) {
    const nets::NetworkId id = networks[n];
    for (std::size_t r = 0; r < resolutions.size(); ++r) {
      const std::int64_t res = resolutions[r];
      const Point& p = points[n * resolutions.size() + r];
      table.add_row(
          {nets::network_name(id),
           std::to_string(res) + "x" + std::to_string(res),
           util::fixed(static_cast<double>(p.macs) / 1e6, 0),
           util::with_commas(p.base_cycles),
           util::fixed(p.full_speedup, 2) + "x",
           util::fixed(p.half_speedup, 2) + "x"});
      csv_rows.push_back({nets::network_name(id), std::to_string(res),
                          std::to_string(p.macs),
                          std::to_string(p.base_cycles),
                          util::fixed(p.full_speedup, 3),
                          util::fixed(p.half_speedup, 3)});
    }
    table.add_separator();
  }
  table.print(std::cout);
  harness.print_footer();

  if (flags.get_bool("csv")) {
    util::CsvWriter csv("bench_resolution.csv");
    csv.write_header({"network", "resolution", "macs", "base_cycles",
                      "full_speedup", "half_speedup"});
    for (const auto& row : csv_rows) {
      csv.write_row(row);
    }
    std::printf("\nwrote bench_resolution.csv\n");
  }
  return 0;
}
