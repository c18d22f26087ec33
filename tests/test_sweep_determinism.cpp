// Differential test of the production sweep path. sched::network_latency,
// slot_savings/build_variant and the report sweeps (table1_rows,
// scaling_sweep) sum closed-form layer latencies (sched/eval_fast.hpp);
// sched::layer_latency folds each layer's MappingPlan and stays the
// oracle. Over 5 networks x 5 variants x array sizes x 3 dataflows x
// broadcast on/off, the closed-form network latency must equal the plan
// fold field for field, and Table I and the Fig. 8(d) scaling sweep must
// equal a reference rebuilt from layer_latency alone — including the 50%
// variants' slot picks, which depend on the latencies being compared.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sched/latency.hpp"
#include "sched/report.hpp"
#include "util/telemetry.hpp"
#include "util/trace_sink.hpp"

namespace fuse::sched {
namespace {

using systolic::Dataflow;

const std::vector<std::int64_t> kSizes = {8, 16, 32, 64, 128, 256};

/// Square arrays of every size x dataflow x broadcast setting.
std::vector<ArrayConfig> grid_configs() {
  std::vector<ArrayConfig> configs;
  for (std::int64_t size : kSizes) {
    for (Dataflow dataflow :
         {Dataflow::kOutputStationary, Dataflow::kWeightStationary,
          Dataflow::kInputStationary}) {
      for (bool broadcast : {false, true}) {
        ArrayConfig cfg = systolic::square_array(size);
        cfg.dataflow = dataflow;
        cfg.broadcast_links = broadcast;
        configs.push_back(cfg);
      }
    }
  }
  return configs;
}

std::string describe(const ArrayConfig& cfg) {
  return cfg.to_string() + " " + systolic::dataflow_name(cfg.dataflow) +
         (cfg.broadcast_links ? " bcast" : " plain");
}

// --- the plan-path reference --------------------------------------------------

/// network_latency as a layer_latency walk.
NetworkLatency plan_network_latency(const NetworkModel& model,
                                    const ArrayConfig& cfg) {
  NetworkLatency result;
  for (const LayerDesc& layer : model.layers) {
    result.per_layer.push_back(layer_latency(layer, cfg));
    result.total_cycles += result.per_layer.back().cycles;
  }
  return result;
}

/// build_variant with the 50% variants' slot savings priced by
/// layer_latency.
VariantBuild plan_build_variant(NetworkId id, NetworkVariant variant,
                                const ArrayConfig& cfg) {
  const int slots = nets::num_fuse_slots(id);
  std::vector<double> savings;
  if (variant == NetworkVariant::kFuseFull50 ||
      variant == NetworkVariant::kFuseHalf50) {
    const FuseMode mode = variant == NetworkVariant::kFuseFull50
                              ? FuseMode::kFull
                              : FuseMode::kHalf;
    std::map<int, double> by_slot;
    for (const LayerDesc& layer : nets::build_network(id).layers) {
      if (layer.fuse_slot >= 0) {
        by_slot[layer.fuse_slot] +=
            static_cast<double>(layer_latency(layer, cfg).cycles);
      }
    }
    for (const LayerDesc& layer :
         nets::build_network(id, core::uniform_modes(slots, mode)).layers) {
      if (layer.fuse_slot >= 0) {
        by_slot[layer.fuse_slot] -=
            static_cast<double>(layer_latency(layer, cfg).cycles);
      }
    }
    for (int slot = 0; slot < slots; ++slot) {
      savings.push_back(by_slot.at(slot));
    }
  }
  VariantBuild build;
  build.modes = core::modes_for_variant(variant, slots, savings);
  build.model = nets::build_network(id, build.modes);
  return build;
}

double plan_speedup(NetworkId id, NetworkVariant variant,
                    const ArrayConfig& cfg) {
  const std::uint64_t base =
      plan_network_latency(nets::build_network(id), cfg).total_cycles;
  const std::uint64_t var =
      plan_network_latency(plan_build_variant(id, variant, cfg).model, cfg)
          .total_cycles;
  return static_cast<double>(base) / static_cast<double>(var);
}

// --- closed form == plan fold -------------------------------------------------

TEST(SweepDifferential, NetworkLatencyMatchesPlanFoldEverywhere) {
  for (const ArrayConfig& cfg : grid_configs()) {
    for (NetworkId id : nets::paper_networks()) {
      for (NetworkVariant variant : core::all_network_variants()) {
        SCOPED_TRACE(nets::network_name(id) + " " +
                     core::network_variant_name(variant) + " on " +
                     describe(cfg));
        const VariantBuild build = build_variant(id, variant, cfg);
        ASSERT_EQ(build.modes, plan_build_variant(id, variant, cfg).modes);

        const NetworkLatency fast = network_latency(build.model, cfg);
        const NetworkLatency plan = plan_network_latency(build.model, cfg);
        EXPECT_EQ(fast.total_cycles, plan.total_cycles);
        ASSERT_EQ(fast.per_layer.size(), plan.per_layer.size());
        for (std::size_t i = 0; i < plan.per_layer.size(); ++i) {
          SCOPED_TRACE(build.model.layers[i].name);
          EXPECT_EQ(fast.per_layer[i].cycles, plan.per_layer[i].cycles);
          EXPECT_EQ(fast.per_layer[i].folds, plan.per_layer[i].folds);
          EXPECT_EQ(fast.per_layer[i].mac_ops, plan.per_layer[i].mac_ops);
          EXPECT_EQ(fast.per_layer[i].pe_count, plan.per_layer[i].pe_count);
        }
      }
    }
  }
}

TEST(SweepDifferential, Table1RowsMatchPlanReference) {
  for (const ArrayConfig& cfg : grid_configs()) {
    SCOPED_TRACE(describe(cfg));
    const std::vector<Table1Row> rows = table1_rows(cfg);
    ASSERT_EQ(rows.size(), nets::paper_networks().size() *
                               core::all_network_variants().size());
    std::size_t k = 0;
    for (NetworkId id : nets::paper_networks()) {
      const std::uint64_t base =
          plan_network_latency(nets::build_network(id), cfg).total_cycles;
      for (NetworkVariant variant : core::all_network_variants()) {
        const NetworkModel model = plan_build_variant(id, variant, cfg).model;
        const std::uint64_t cycles =
            plan_network_latency(model, cfg).total_cycles;
        const Table1Row& row = rows[k++];
        EXPECT_EQ(row.network, id);
        EXPECT_EQ(row.variant, variant);
        EXPECT_EQ(row.macs, model.total_macs());
        EXPECT_EQ(row.params, model.total_params());
        EXPECT_EQ(row.cycles, cycles);
        EXPECT_EQ(row.speedup,
                  static_cast<double>(base) / static_cast<double>(cycles))
            << nets::network_name(id) << " "
            << core::network_variant_name(variant);
      }
    }
  }
}

TEST(SweepDifferential, ScalingSweepMatchesPlanReference) {
  for (NetworkId id : nets::paper_networks()) {
    for (NetworkVariant variant : core::all_network_variants()) {
      SCOPED_TRACE(nets::network_name(id) + " " +
                   core::network_variant_name(variant));
      const std::vector<ScalingPoint> points =
          scaling_sweep(id, variant, kSizes);
      ASSERT_EQ(points.size(), kSizes.size());
      for (std::size_t s = 0; s < kSizes.size(); ++s) {
        EXPECT_EQ(points[s].array_size, kSizes[s]);
        EXPECT_EQ(points[s].speedup,
                  plan_speedup(id, variant, systolic::square_array(kSizes[s])))
            << kSizes[s] << "x" << kSizes[s];
      }
    }
  }
}

// --- telemetry never perturbs results -----------------------------------------

std::string serialize_sweeps() {
  std::ostringstream out;
  out.precision(17);
  for (const Table1Row& r : table1_rows(systolic::square_array(64))) {
    out << r.cycles << '|' << r.speedup << '\n';
  }
  for (NetworkId id : nets::paper_networks()) {
    for (const ScalingPoint& p :
         scaling_sweep(id, NetworkVariant::kFuseHalf, kSizes)) {
      out << p.array_size << '|' << p.speedup << '\n';
    }
  }
  return out.str();
}

TEST(SweepDifferential, ByteIdenticalWithTelemetryAttached) {
  // What --trace-json/--stats-json enable in the benches: a global trace
  // sink attached during the sweeps, then a stats export.
  const std::string reference = serialize_sweeps();

  util::TraceSink sink;
  util::set_global_trace_sink(&sink);
  const std::string traced = serialize_sweeps();
  util::set_global_trace_sink(nullptr);
  std::ostringstream stats_json;
  util::metrics().write_json(stats_json);

  EXPECT_EQ(traced, reference);
  if (util::telemetry_enabled()) {
    EXPECT_GT(sink.event_count(), 0u);  // sweep.table1_rows, scaling points
    EXPECT_FALSE(stats_json.str().empty());
  }
}

}  // namespace
}  // namespace fuse::sched
