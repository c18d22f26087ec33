// Tests for the plan-free closed-form evaluator (sched/eval_fast.hpp):
// the oracle-vs-fast equality contract over the complete differential
// grid (networks x variants x dataflows x broadcast x sched modes), the
// batched form over the zoo at serving batch sizes, seeded random shapes
// and arrays for both forms, and the transparency/datapath axes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/transform.hpp"
#include "nn/ops.hpp"
#include "sched/eval_fast.hpp"
#include "sched/latency.hpp"
#include "sched/netplan.hpp"
#include "systolic/mapping.hpp"
#include "systolic/sim.hpp"
#include "systolic/trace.hpp"
#include "util/rng.hpp"

namespace fuse::sched {
namespace {

using nn::LayerDesc;
using nn::OpKind;
using systolic::ArrayConfig;
using systolic::Dataflow;
using systolic::Datapath;
using systolic::MemoryConfig;
using systolic::Pipelining;
using systolic::StandardConvMapping;

constexpr Dataflow kDataflows[] = {Dataflow::kOutputStationary,
                                   Dataflow::kWeightStationary,
                                   Dataflow::kInputStationary};

// --- equality helpers --------------------------------------------------------

/// Field-for-field equality of a closed-form cost and the fold of the plan
/// it mirrors.
void expect_matches_plan(const LayerCost& fast,
                         const systolic::MappingPlan& plan,
                         const ArrayConfig& cfg, const MemoryConfig& mem) {
  const systolic::LatencyEstimate oracle = plan.total_latency();
  const systolic::TrafficEstimate traffic =
      systolic::plan_traffic(plan, cfg, mem);
  EXPECT_EQ(fast.latency.cycles, oracle.cycles);
  EXPECT_EQ(fast.latency.folds, oracle.folds);
  EXPECT_EQ(fast.latency.mac_ops, oracle.mac_ops);
  EXPECT_EQ(fast.latency.pe_count, oracle.pe_count);
  EXPECT_EQ(fast.traffic.input_bytes, traffic.input_bytes);
  EXPECT_EQ(fast.traffic.weight_bytes, traffic.weight_bytes);
  EXPECT_EQ(fast.traffic.output_bytes, traffic.output_bytes);
  EXPECT_EQ(fast.peak_fold_bytes,
            systolic::plan_peak_fold_bytes(plan, cfg, mem));
  EXPECT_EQ(fast.on_array, !plan.ops.empty());
}

std::string describe(const LayerDesc& layer, const ArrayConfig& cfg) {
  return layer.to_string() + " on " + cfg.to_string() + " " +
         dataflow_name(cfg.dataflow) +
         (cfg.overlap_fold_drain ? " overlap" : "") +
         (cfg.strided_fuse_dense_compute ? " dense" : "") +
         (cfg.standard_conv_mapping == StandardConvMapping::kChannelwise
              ? " channelwise"
              : "");
}

void expect_layer_equal(const LayerDesc& layer, const ArrayConfig& cfg,
                        const MemoryConfig& mem) {
  SCOPED_TRACE(describe(layer, cfg));
  expect_matches_plan(eval_layer_fast(layer, cfg, mem),
                      systolic::lower(layer, cfg), cfg, mem);
}

void expect_batched_equal(const LayerDesc& layer, const ArrayConfig& cfg,
                          const MemoryConfig& mem, std::int64_t batch) {
  SCOPED_TRACE(describe(layer, cfg) + " batch " + std::to_string(batch));
  expect_matches_plan(eval_layer_batched(layer, cfg, mem, batch),
                      systolic::lower_batched(layer, cfg, batch), cfg, mem);
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

// The batched form against the lower_batched fold on every layer of the
// zoo, at the batch sizes the serving engine forms (fold edges at 1-3,
// powers of two and their neighbours), plus network_bound_batched against
// its plan-path oracle: per layer, max(compute, memory) of the plan.
// 5 networks x 3 variants x 3 dataflows x broadcast on/off x both conv
// mappings (the batched form must ignore channel-wise) x 8 batches.
TEST(EvalFastBatched, ZooGridMatchesLowerBatched) {
  const MemoryConfig mem;
  for (nets::NetworkId id : nets::paper_networks()) {
    for (core::NetworkVariant variant :
         {core::NetworkVariant::kBaseline, core::NetworkVariant::kFuseFull,
          core::NetworkVariant::kFuseHalf}) {
      const nets::NetworkModel model =
          build_variant(id, variant, ArrayConfig{}).model;
      for (Dataflow dataflow : kDataflows) {
        for (bool broadcast : {false, true}) {
          for (StandardConvMapping mapping :
               {StandardConvMapping::kIm2col,
                StandardConvMapping::kChannelwise}) {
            ArrayConfig cfg;
            cfg.dataflow = dataflow;
            cfg.broadcast_links = broadcast;
            cfg.standard_conv_mapping = mapping;
            for (std::int64_t batch : {1, 2, 3, 7, 8, 16, 63, 64}) {
              SCOPED_TRACE(model.name + " on " + cfg.to_string() + " " +
                           dataflow_name(dataflow) + " batch " +
                           std::to_string(batch));
              std::uint64_t oracle_bound = 0;
              for (const LayerDesc& layer : model.layers) {
                SCOPED_TRACE(layer.name);
                const systolic::MappingPlan plan =
                    systolic::lower_batched(layer, cfg, batch);
                expect_matches_plan(
                    eval_layer_batched(layer, cfg, mem, batch), plan, cfg,
                    mem);
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
}

// --- seeded random shapes ----------------------------------------------------

/// Uniform integer in [lo, hi].
std::int64_t pick(util::Rng& rng, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  rng.uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
}

/// A channel count folded over an array side: a third of the time one
/// below, at, or one above `side`, otherwise anywhere in 1-130.
std::int64_t draw_channels(util::Rng& rng, std::int64_t side) {
  if (pick(rng, 0, 2) == 0) {
    return std::max<std::int64_t>(1, side + pick(rng, -1, 1));
  }
  return pick(rng, 1, 130);
}

/// One layer of `kind`, built through the nn::make_* factories: H and W
/// in 1-40 (so 1x1 spatial), padding 0-3, a kernel of 1-7 that fits the
/// padded input, stride 1-4 (so stride > kernel), and channel counts at
/// the array's rows or cols +-1 a third of the time.
LayerDesc draw_layer(util::Rng& rng, OpKind kind, const ArrayConfig& cfg) {
  const std::int64_t h = pick(rng, 1, 40);
  const std::int64_t w = pick(rng, 1, 40);
  const std::int64_t pad = pick(rng, 0, 3);
  const std::int64_t kernel = pick(rng, 1, std::min<std::int64_t>(
                                               7, std::min(h, w) + 2 * pad));
  const std::int64_t stride = pick(rng, 1, 4);
  const std::int64_t side = pick(rng, 0, 1) == 0 ? cfg.rows : cfg.cols;
  switch (kind) {
    case OpKind::kStandardConv:
      return nn::make_conv("conv", draw_channels(rng, side), h, w,
                           draw_channels(rng, side), kernel, stride, pad);
    case OpKind::kGroupedConv: {
      // Per-group channel counts are what the array folds over.
      const std::int64_t groups = pick(rng, 2, 8);
      LayerDesc layer = nn::make_conv(
          "gconv", groups * draw_channels(rng, side), h, w,
          groups * draw_channels(rng, side), kernel, stride, pad);
      layer.kind = OpKind::kGroupedConv;
      layer.groups = groups;
      return layer;
    }
    case OpKind::kDepthwiseConv:
      return nn::make_depthwise("dw", draw_channels(rng, side), h, w, kernel,
                                stride, pad);
    case OpKind::kPointwiseConv:
      return nn::make_pointwise("pw", draw_channels(rng, side), h, w,
                                draw_channels(rng, side));
    case OpKind::kFuseRowConv:
      return nn::make_fuse_row("row", draw_channels(rng, side), h, w, kernel,
                               stride, pad);
    case OpKind::kFuseColConv:
      return nn::make_fuse_col("col", draw_channels(rng, side), h, w, kernel,
                               stride, pad);
    case OpKind::kFullyConnected:
      return nn::make_fully_connected("fc", draw_channels(rng, side),
                                      draw_channels(rng, side));
    default: {
      // Glue: a pool with a depthwise's geometry costs nothing on either
      // path.
      LayerDesc layer =
          nn::make_depthwise("pool", draw_channels(rng, side), h, w, kernel,
                             stride, pad);
      layer.kind = kind;
      return layer;
    }
  }
}

// Both closed forms against their plan folds on seeded random layers
// (every on-array kind plus a glue kind) and arrays (rows and cols 1-70,
// so rectangular), with batches 1-64, crossed with every dataflow x
// pipelining x datapath x broadcast x drain overlap x strided dense
// compute x conv mapping. The zoo grids above only reach the zoo's
// geometries; ModelPool::register_custom serves arbitrary ones.
TEST(EvalFastRandom, BothFormsMatchPlanFoldsOnSeededShapes) {
  constexpr OpKind kKinds[] = {
      OpKind::kStandardConv,  OpKind::kGroupedConv, OpKind::kDepthwiseConv,
      OpKind::kPointwiseConv, OpKind::kFuseRowConv, OpKind::kFuseColConv,
      OpKind::kFullyConnected, OpKind::kMaxPool};
  constexpr int kDrawsPerKind = 3;
  util::Rng rng(/*seed=*/20260418);
  for (Dataflow dataflow : kDataflows) {
    for (Pipelining pipe : {Pipelining::kPipelined, Pipelining::kTransparent2,
                            Pipelining::kTransparent4}) {
      for (Datapath dp : {Datapath::kInt8, Datapath::kFp16, Datapath::kFp32}) {
        for (int switches = 0; switches < 16; ++switches) {
          ArrayConfig cfg;
          cfg.dataflow = dataflow;
          cfg.pipelining = pipe;
          cfg.datapath = dp;
          cfg.broadcast_links = (switches & 1) != 0;
          cfg.overlap_fold_drain = (switches & 2) != 0;
          cfg.strided_fuse_dense_compute = (switches & 4) != 0;
          cfg.standard_conv_mapping = (switches & 8) != 0
                                          ? StandardConvMapping::kChannelwise
                                          : StandardConvMapping::kIm2col;
          MemoryConfig mem;
          mem.dtype_bytes = cfg.datapath_bytes();
          for (OpKind kind : kKinds) {
            for (int draw = 0; draw < kDrawsPerKind; ++draw) {
              cfg.rows = pick(rng, 1, 70);
              cfg.cols = pick(rng, 1, 70);
              const LayerDesc layer = draw_layer(rng, kind, cfg);
              expect_layer_equal(layer, cfg, mem);
              expect_batched_equal(layer, cfg, mem, pick(rng, 1, 64));
            }
          }
        }
      }
    }
  }
}

// Per-layer equality on every layer of every baseline + FuSe-Full network
// under the non-default fold-accounting and conv-mapping switches the
// network grid above does not flip.
TEST(EvalFastGrid, NonDefaultConfigSwitches) {
  const MemoryConfig mem;
  for (nets::NetworkId id : nets::paper_networks()) {
    for (core::NetworkVariant variant :
         {core::NetworkVariant::kBaseline, core::NetworkVariant::kFuseFull}) {
      ArrayConfig cfg;
      const VariantBuild build = build_variant(id, variant, cfg);
      for (bool overlap : {false, true}) {
        for (systolic::StandardConvMapping mapping :
             {systolic::StandardConvMapping::kIm2col,
              systolic::StandardConvMapping::kChannelwise}) {
          ArrayConfig variant_cfg = cfg;
          variant_cfg.overlap_fold_drain = overlap;
          variant_cfg.standard_conv_mapping = mapping;
          variant_cfg.strided_fuse_dense_compute = !overlap;  // vary too
          for (const LayerDesc& layer : build.model.layers) {
            expect_layer_equal(layer, variant_cfg, mem);
          }
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
// legacy (span - 1) / span forms — pinned via the cfg-taking fold_cycles
// overload against the original 3-argument one.
TEST(EvalFast, FoldCyclesPipelinedReducesToLegacy) {
  ArrayConfig cfg;  // pipelined default
  for (std::int64_t r : {1, 3, 64}) {
    for (std::int64_t c : {1, 5, 64}) {
      for (std::int64_t d : {1, 7, 100}) {
        EXPECT_EQ(systolic::fold_cycles(r, c, d, cfg),
                  systolic::fold_cycles(r, c, d));
      }
    }
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
