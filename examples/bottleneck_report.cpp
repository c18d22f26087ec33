// bottleneck_report: the cycle-attribution engine as a console
// instrument — "explain every cycle" for any zoo network x variant.
//
// Three tables over one attributed schedule (sched/attribution.hpp):
//   1. by operator class — where the network's cycles go, split into the
//      MAC-streaming compute windows vs wavefront fill/drain overhead
//      (the paper's Fig. 8(c) axis, with the waste made visible);
//   2. roofline scheduling units — which layers (or fused groups under
//      --sched-mode=fused) are memory-bound and how many DRAM stall
//      cycles each adds on top of its compute time;
//   3. the top-N layers by cycles with PE occupancy and roofline points
//      (operational intensity in MACs/byte, attained cycles/MAC).
//
// Every number comes from the exact decomposition FUSE_CHECKed against
// the analytic latency — the tables always sum back to the totals the
// other tools report. --json additionally writes the full report
// (per-layer, per-unit, per-segment) as machine-readable JSON.
//
// Usage: bottleneck_report [--net=v2] [--variant=fuse_full] [--size=64]
//        [--sched-mode=per-layer] [--top=10] [--json=]
#include <cstdio>
#include <iostream>

#include "sched/attribution.hpp"
#include "sched/netplan.hpp"
#include "sched/report.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

using namespace fuse;

namespace {

core::NetworkVariant parse_variant(const std::string& name) {
  if (name == "baseline") return core::NetworkVariant::kBaseline;
  if (name == "full" || name == "fuse_full") {
    return core::NetworkVariant::kFuseFull;
  }
  if (name == "half" || name == "fuse_half") {
    return core::NetworkVariant::kFuseHalf;
  }
  if (name == "full50" || name == "fuse_full50") {
    return core::NetworkVariant::kFuseFull50;
  }
  if (name == "half50" || name == "fuse_half50") {
    return core::NetworkVariant::kFuseHalf50;
  }
  FUSE_CHECK(false) << "unknown --variant '" << name
                    << "' (baseline|fuse_full|fuse_half|fuse_full50|"
                       "fuse_half50)";
  return core::NetworkVariant::kBaseline;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_string("net", "v2", "network: v1|v2|v3s|v3l|mnas|resnet50");
  flags.add_string("variant", "fuse_full",
                   "baseline|fuse_full|fuse_half|fuse_full50|fuse_half50");
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.add_string("sched-mode", "per-layer",
                   "network schedule: per-layer or fused");
  flags.add_int("top", 10, "layer rows to show, by cycles (0=all)");
  flags.add_string("json", "", "write the full attribution report here");
  flags.parse(argc, argv);

  const nets::NetworkId id = nets::parse_network_flag(flags.get_string("net"));
  const core::NetworkVariant variant =
      parse_variant(flags.get_string("variant"));
  FUSE_CHECK(id != nets::NetworkId::kResNet50 ||
             variant == core::NetworkVariant::kBaseline)
      << "ResNet-50 has no depthwise layers; only --variant=baseline";
  const auto cfg = systolic::square_array(flags.get_int("size"));
  const systolic::MemoryConfig mem;
  sched::SchedMode mode;
  FUSE_CHECK(sched::parse_sched_mode(flags.get_string("sched-mode"), &mode))
      << "--sched-mode must be 'per-layer' or 'fused', got '"
      << flags.get_string("sched-mode") << "'";
  const std::int64_t top = flags.get_int("top");
  FUSE_CHECK(top >= 0) << "--top must be >= 0";

  const sched::VariantBuild build = sched::build_variant(id, variant, cfg);
  const sched::NetworkPlan plan =
      sched::plan_network(build.model, cfg, mem, mode);
  const sched::AttributionReport report =
      sched::attribute_network(plan, build.model);

  std::printf(
      "%s %s on %s array — %s schedule\n"
      "every cycle attributed, identities FUSE_CHECKed against the "
      "analytic model\n\n",
      build.model.name.c_str(),
      core::network_variant_name(variant).c_str(), cfg.to_string().c_str(),
      sched::sched_mode_name(mode));

  std::printf("Cycles by operator class (compute = MAC-streaming windows, "
              "fill/drain = wavefront overhead):\n");
  sched::attribution_class_table(report).print(std::cout);

  std::printf("\nRoofline scheduling units%s:\n",
              mode == sched::SchedMode::kFused
                  ? " (fused groups charged as one unit)"
                  : "");
  sched::attribution_unit_table(report).print(std::cout);

  std::printf("\nTop %lld layers by cycles:\n",
              static_cast<long long>(top));
  sched::attribution_layer_table(report, static_cast<std::size_t>(top))
      .print(std::cout);

  const std::uint64_t pe_idle =
      report.pe_idle_geometry + report.pe_idle_fill_drain;
  std::printf(
      "\nsummary: %s cycles (+%s DRAM stall -> %s bound)\n"
      "         PE-cycles: %s busy / %s idle-geometry / %s "
      "idle-fill-drain (occupancy %s%%)\n",
      util::with_commas(report.total_cycles).c_str(),
      util::with_commas(report.total_dram_stall).c_str(),
      util::with_commas(report.bound_cycles).c_str(),
      util::format_count(report.pe_busy).c_str(),
      util::format_count(report.pe_idle_geometry).c_str(),
      util::format_count(report.pe_idle_fill_drain).c_str(),
      util::fixed(100.0 * report.occupancy(), 2).c_str());
  FUSE_CHECK(report.pe_busy + pe_idle == report.pe_total)
      << "summary does not cover all PE-cycles";

  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    sched::write_attribution_json_file(json_path, report);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
