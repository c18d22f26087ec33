// Tests for the plan-free closed-form evaluator (sched/eval_fast.hpp)
// over the zoo: the oracle-vs-fast equality contract on the complete
// network grid (networks x variants x dataflows x broadcast x sched
// modes), the batched form at serving batch sizes, and the
// transparency/datapath axes. Random shapes and arrays are
// tests/test_differential.cpp's.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/transform.hpp"
#include "oracles.hpp"
#include "sched/eval_fast.hpp"
#include "sched/latency.hpp"
#include "sched/netplan.hpp"
#include "systolic/mapping.hpp"
#include "systolic/sim.hpp"

namespace fuse::sched {
namespace {

using nn::LayerDesc;
using systolic::ArrayConfig;
using systolic::Dataflow;
using systolic::Datapath;
using systolic::MemoryConfig;
using systolic::Pipelining;

constexpr Dataflow kDataflows[] = {Dataflow::kOutputStationary,
                                   Dataflow::kWeightStationary,
                                   Dataflow::kInputStationary};

// --- equality helpers --------------------------------------------------------

using test::expect_matches_plan;

std::string describe(const LayerDesc& layer, const ArrayConfig& cfg) {
  return layer.to_string() + " on " + cfg.to_string() + " " +
         dataflow_name(cfg.dataflow) +
         (cfg.overlap_fold_drain ? " overlap" : "");
}

void expect_layer_equal(const LayerDesc& layer, const ArrayConfig& cfg,
                        const MemoryConfig& mem) {
  SCOPED_TRACE(describe(layer, cfg));
  expect_matches_plan(eval_layer_fast(layer, cfg, mem),
                      systolic::lower(layer, cfg), cfg, mem);
}

void expect_network_equal(const nets::NetworkModel& model,
                          const ArrayConfig& cfg, const MemoryConfig& mem,
                          SchedMode mode) {
  SCOPED_TRACE(model.name + " on " + cfg.to_string() + " " +
               dataflow_name(cfg.dataflow) + " " + sched_mode_name(mode));
  const NetworkPlan plan = plan_network(model, cfg, mem, mode);
  const NetworkRoofline oracle = plan_roofline(plan);
  const NetworkEval ev = eval_network_fast(model, cfg, mem, mode);

  ASSERT_EQ(ev.layers.size(), model.layers.size());
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    EXPECT_EQ(ev.layers[i].latency.cycles, plan.layer_latency[i].cycles);
    EXPECT_EQ(ev.layers[i].traffic.total_bytes(),
              plan.layer_traffic[i].total_bytes());
  }
  EXPECT_EQ(ev.total_cycles, plan.total_cycles);
  EXPECT_EQ(ev.schedule.on_array, plan.on_array);
  EXPECT_EQ(ev.schedule.staging_bytes, plan.staging_bytes);
  ASSERT_EQ(ev.schedule.buffers.size(), plan.buffers.size());
  for (std::size_t i = 0; i < plan.buffers.size(); ++i) {
    EXPECT_EQ(ev.schedule.buffers[i].producer, plan.buffers[i].producer);
    EXPECT_EQ(ev.schedule.buffers[i].bytes, plan.buffers[i].bytes);
    EXPECT_EQ(ev.schedule.buffers[i].offset, plan.buffers[i].offset);
    EXPECT_EQ(ev.schedule.buffers[i].spilled, plan.buffers[i].spilled);
  }
  ASSERT_EQ(ev.schedule.fused_pairs.size(), plan.fused_pairs.size());
  for (std::size_t i = 0; i < plan.fused_pairs.size(); ++i) {
    EXPECT_EQ(ev.schedule.fused_pairs[i].producer,
              plan.fused_pairs[i].producer);
    EXPECT_EQ(ev.schedule.fused_pairs[i].producer2,
              plan.fused_pairs[i].producer2);
    EXPECT_EQ(ev.schedule.fused_pairs[i].consumer,
              plan.fused_pairs[i].consumer);
    EXPECT_EQ(ev.schedule.fused_pairs[i].saved_output_bytes,
              plan.fused_pairs[i].saved_output_bytes);
    EXPECT_EQ(ev.schedule.fused_pairs[i].saved_input_bytes,
              plan.fused_pairs[i].saved_input_bytes);
  }
  EXPECT_EQ(ev.roofline.compute_cycles, oracle.compute_cycles);
  EXPECT_EQ(ev.roofline.memory_cycles, oracle.memory_cycles);
  EXPECT_EQ(ev.roofline.bound_cycles, oracle.bound_cycles);
  EXPECT_EQ(ev.roofline.total_bytes, oracle.total_bytes);
  EXPECT_EQ(ev.roofline.memory_bound_layers, oracle.memory_bound_layers);
}

// --- the complete differential grid ------------------------------------------

// 5 networks x 5 variants x 3 dataflows x broadcast on/off x 2 sched
// modes — the acceptance grid of the evaluator's equality contract. The
// 50% variants are rebuilt per config (their slot pick is
// config-dependent); both paths then see the identical model.
TEST(EvalFastGrid, MatchesPlanPathEverywhere) {
  const MemoryConfig mem;
  for (nets::NetworkId id : nets::paper_networks()) {
    for (core::NetworkVariant variant : core::all_network_variants()) {
      for (Dataflow dataflow : kDataflows) {
        for (bool broadcast : {false, true}) {
          ArrayConfig cfg;
          cfg.dataflow = dataflow;
          cfg.broadcast_links = broadcast;
          const VariantBuild build = build_variant(id, variant, cfg);
          for (SchedMode mode : {SchedMode::kPerLayer, SchedMode::kFused}) {
            expect_network_equal(build.model, cfg, mem, mode);
          }
        }
      }
    }
  }
}

// The batched form against the batched lowering's fold on every layer of
// the zoo, at the batch sizes the serving engine forms (fold edges at 1-3,
// powers of two and their neighbours), plus network_bound_batched against
// its plan-path oracle: per layer, max(compute, memory) of the plan.
// 5 networks x 3 variants x 3 dataflows x broadcast on/off x 8 batches.
TEST(EvalFastBatched, ZooGridMatchesBatchedLowering) {
  const MemoryConfig mem;
  for (nets::NetworkId id : nets::paper_networks()) {
    for (core::NetworkVariant variant :
         {core::NetworkVariant::kBaseline, core::NetworkVariant::kFuseFull,
          core::NetworkVariant::kFuseHalf}) {
      const nets::NetworkModel model =
          build_variant(id, variant, ArrayConfig{}).model;
      for (Dataflow dataflow : kDataflows) {
        for (bool broadcast : {false, true}) {
          ArrayConfig cfg;
          cfg.dataflow = dataflow;
          cfg.broadcast_links = broadcast;
          for (std::int64_t batch : {1, 2, 3, 7, 8, 16, 63, 64}) {
            SCOPED_TRACE(model.name + " on " + cfg.to_string() + " " +
                         dataflow_name(dataflow) + " batch " +
                         std::to_string(batch));
            std::uint64_t oracle_bound = 0;
            for (const LayerDesc& layer : model.layers) {
              SCOPED_TRACE(layer.name);
              const systolic::MappingPlan plan =
                  systolic::lower(layer, cfg, batch);
              expect_matches_plan(eval_layer_fast(layer, cfg, mem, batch),
                                  plan, cfg, mem);
              oracle_bound += std::max(
                  plan.total_latency().cycles,
                  systolic::plan_traffic(plan, cfg, mem).memory_cycles(mem));
            }
            EXPECT_EQ(network_bound_batched(model, cfg, mem, batch),
                      oracle_bound);
          }
        }
      }
    }
  }
}

// Per-layer equality on every layer of every baseline + FuSe-Full network
// under the non-default fold-accounting switch the network grid above does
// not flip.
TEST(EvalFastGrid, NonDefaultConfigSwitches) {
  const MemoryConfig mem;
  for (nets::NetworkId id : nets::paper_networks()) {
    for (core::NetworkVariant variant :
         {core::NetworkVariant::kBaseline, core::NetworkVariant::kFuseFull}) {
      ArrayConfig cfg;
      const VariantBuild build = build_variant(id, variant, cfg);
      for (bool overlap : {false, true}) {
        ArrayConfig variant_cfg = cfg;
        variant_cfg.overlap_fold_drain = overlap;
        for (const LayerDesc& layer : build.model.layers) {
          expect_layer_equal(layer, variant_cfg, mem);
        }
      }
    }
  }
}

// The transparency and datapath axes: closed forms must track the
// fold-walk on non-square arrays, every dataflow, and every pipelining
// mode, with the memory dtype paired to the datapath.
TEST(EvalFastGrid, TransparencyAndDatapathAxes) {
  for (Pipelining pipe : {Pipelining::kPipelined, Pipelining::kTransparent2,
                          Pipelining::kTransparent4}) {
    for (Datapath dp : {Datapath::kInt8, Datapath::kFp16, Datapath::kFp32}) {
      for (Dataflow dataflow : kDataflows) {
        ArrayConfig cfg;
        cfg.rows = 32;
        cfg.cols = 128;
        cfg.dataflow = dataflow;
        cfg.pipelining = pipe;
        cfg.datapath = dp;
        MemoryConfig mem;
        mem.dtype_bytes = cfg.datapath_bytes();
        const VariantBuild build = build_variant(
            nets::NetworkId::kMobileNetV2, core::NetworkVariant::kFuseFull,
            cfg);
        for (const LayerDesc& layer : build.model.layers) {
          expect_layer_equal(layer, cfg, mem);
        }
        expect_network_equal(build.model, cfg, mem, SchedMode::kFused);
      }
    }
  }
}

// At transparency 1 the generalized skew/drain terms must reduce to the
// legacy (span - 1) / span forms.
TEST(EvalFast, PipelinedSkewAndDrainReduceToLegacy) {
  ArrayConfig cfg;  // pipelined default
  for (std::int64_t span : {1, 3, 5, 7, 64, 100}) {
    EXPECT_EQ(cfg.skew_cycles(span), span - 1);
    EXPECT_EQ(cfg.drain_cycles(span), span);
  }
}

// --- simulator guard ---------------------------------------------------------

// The cycle-accurate sims model the fully pipelined array; transparent
// configs must be rejected at construction, not silently mis-simulated.
TEST(SimGuard, RejectsTransparentConfigs) {
  ArrayConfig cfg;
  cfg.pipelining = Pipelining::kTransparent2;
  EXPECT_THROW(systolic::SystolicArraySim sim(cfg), util::Error);
  cfg.pipelining = Pipelining::kPipelined;
  EXPECT_NO_THROW(systolic::SystolicArraySim sim(cfg));
}

}  // namespace
}  // namespace fuse::sched
