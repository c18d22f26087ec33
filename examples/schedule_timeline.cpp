// schedule_timeline: an ASCII Gantt chart of the array's occupancy for one
// network — the fastest way to *see* the paper's story. Run it for a
// baseline and you watch depthwise layers own the machine at ~0.2%
// utilization; run the FuSe variant and the same chart compresses ~7x with
// pointwise layers doing honest work.
//
// With --sched-mode=fused the chart shows the fused NetworkPlan instead:
// every legal depthwise/FuSe -> pointwise group collapses into one
// "producer+consumer" bar spanning the interleaved region (the end
// timestamp is FUSE_CHECKed against the analytic total).
//
// Usage: schedule_timeline [--net=v2] [--variant=baseline] [--size=64]
//        [--top=12] [--csv=] [--sched-mode=per-layer]
//        [--trace-json=] [--stats-json=] [--profile-json=]
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "sched/netplan.hpp"
#include "sched/timeline.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_string("net", "v2", "network: v1|v2|v3s|v3l|mnas");
  flags.add_string("variant", "baseline", core::kNetworkVariantSpellings);
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.add_int("top", 12, "show the N longest-running layers (0=all)");
  flags.add_string("csv", "", "write the full timeline CSV to this path");
  flags.add_string("sched-mode", "per-layer",
                   "network schedule: per-layer or fused");
  bench::add_telemetry_flags(flags);
  flags.parse(argc, argv);
  // Silent: writes --trace-json/--stats-json/--profile-json on exit
  // without touching stdout.
  bench::TelemetryScope telemetry(flags);

  const nets::NetworkId id = nets::parse_network_flag(flags.get_string("net"));
  const auto variant =
      core::parse_network_variant(flags.get_string("variant"));
  const auto cfg = systolic::square_array(flags.get_int("size"));
  sched::SchedMode mode;
  FUSE_CHECK(sched::parse_sched_mode(flags.get_string("sched-mode"), &mode))
      << "--sched-mode must be 'per-layer' or 'fused', got '"
      << flags.get_string("sched-mode") << "'";

  const sched::VariantBuild build = sched::build_variant(id, variant, cfg);
  const sched::NetworkPlan plan =
      sched::plan_network(build.model, cfg, systolic::MemoryConfig{}, mode);
  const sched::Timeline timeline = sched::plan_timeline(plan, build.model);
  FUSE_CHECK(timeline.total_cycles == plan.total_cycles)
      << "timeline end diverged from the schedule total";

  std::printf("%s %s on %s — array occupancy (%s schedule",
              build.model.name.c_str(),
              core::network_variant_name(variant).c_str(),
              cfg.to_string().c_str(), sched::sched_mode_name(mode));
  if (mode == sched::SchedMode::kFused) {
    std::printf(", %zu fused groups", plan.fused_pairs.size());
  }
  std::printf(")\n\n");

  const std::int64_t top = flags.get_int("top");
  if (top > 0 && static_cast<std::size_t>(top) < timeline.entries.size()) {
    // Show only the longest-running layers, in execution order.
    sched::Timeline trimmed;
    trimmed.total_cycles = timeline.total_cycles;
    std::vector<sched::TimelineEntry> sorted = timeline.entries;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) {
                return a.duration() > b.duration();
              });
    sorted.resize(static_cast<std::size_t>(top));
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) {
                return a.start_cycle < b.start_cycle;
              });
    trimmed.entries = std::move(sorted);
    std::printf("%s", sched::ascii_gantt(trimmed).c_str());
    std::printf("(showing the %lld longest of %zu layers; bars scale to "
                "the FULL network runtime)\n",
                static_cast<long long>(top), timeline.entries.size());
  } else {
    std::printf("%s", sched::ascii_gantt(timeline).c_str());
  }

  const std::string csv_path = flags.get_string("csv");
  if (!csv_path.empty()) {
    sched::write_timeline_csv(timeline, csv_path);
    std::printf("\nwrote %s\n", csv_path.c_str());
  }
  return 0;
}
