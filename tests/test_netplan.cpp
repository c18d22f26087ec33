// Tests for the network-level scheduler (sched/netplan.hpp): SRAM
// liveness planning invariants, fusion legality, the never-slower roofline
// contract, fold-interleaved schedules, and executor bit-exactness across
// schedule modes.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "nn/ops.hpp"
#include "sched/eval_fast.hpp"
#include "sched/execute.hpp"
#include "sched/latency.hpp"
#include "sched/netplan.hpp"
#include "sched/timeline.hpp"
#include "systolic/sim.hpp"
#include "systolic/trace.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace fuse::sched {
namespace {

using nn::LayerDesc;
using nn::OpKind;
using systolic::ArrayConfig;
using tensor::Shape;
using tensor::Tensor;

const systolic::MemoryConfig kMem;  // defaults: 16 B/cycle, 8 MiB SRAM

nets::NetworkModel two_layer_chain(std::int64_t channels, std::int64_t hw,
                                   std::int64_t out_c) {
  nets::NetworkModel model;
  model.name = "dw_pw_chain";
  model.layers.push_back(
      nn::make_depthwise("dw", channels, hw, hw, 3, 1, 1));
  model.layers.push_back(
      nn::make_pointwise("pw", channels, hw, hw, out_c));
  return model;
}

LayerDesc activation_glue(std::int64_t c, std::int64_t h, std::int64_t w) {
  LayerDesc glue;
  glue.name = "relu";
  glue.kind = OpKind::kActivation;
  glue.in_c = c;
  glue.in_h = h;
  glue.in_w = w;
  glue.out_c = c;
  glue.out_h = h;
  glue.out_w = w;
  return glue;
}

LayerDesc pool_glue(std::int64_t c, std::int64_t h, std::int64_t w) {
  LayerDesc glue;
  glue.name = "pool";
  glue.kind = OpKind::kMaxPool;
  glue.in_c = c;
  glue.in_h = h;
  glue.in_w = w;
  glue.kernel_h = 1;
  glue.kernel_w = 1;
  glue.out_c = c;
  glue.out_h = h;
  glue.out_w = w;
  return glue;
}

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  t.fill_uniform(rng, -1.0F, 1.0F);
  return t;
}

// --- mode plumbing -----------------------------------------------------------

TEST(SchedMode, NameParseRoundTrip) {
  for (SchedMode mode : {SchedMode::kPerLayer, SchedMode::kFused}) {
    SchedMode parsed;
    ASSERT_TRUE(parse_sched_mode(sched_mode_name(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
  SchedMode parsed;
  EXPECT_TRUE(parse_sched_mode("per_layer", &parsed));
  EXPECT_EQ(parsed, SchedMode::kPerLayer);
  EXPECT_FALSE(parse_sched_mode("bogus", &parsed));
  EXPECT_FALSE(parse_sched_mode("", &parsed));
}

// --- per-fold footprint ------------------------------------------------------

TEST(PeakFoldBytes, MatchesFoldTraceAcrossLayerKinds) {
  const ArrayConfig cfg = systolic::square_array(16);
  const std::vector<LayerDesc> layers = {
      nn::make_conv("conv", 3, 16, 16, 8, 3, 2, 1),
      nn::make_depthwise("dw", 12, 9, 9, 3, 1, 1),
      nn::make_pointwise("pw", 12, 9, 9, 24),
      nn::make_fuse_row("row", 6, 9, 9, 3, 1, 1),
      nn::make_fuse_col("col", 6, 9, 9, 3, 1, 1),
      nn::make_fuse_row("row_s2", 6, 9, 9, 3, 2, 1),
      nn::make_fully_connected("fc", 64, 10),
  };
  for (const LayerDesc& layer : layers) {
    const systolic::MappingPlan plan = systolic::lower(layer, cfg);
    EXPECT_EQ(systolic::plan_peak_fold_bytes(plan, cfg, kMem),
              systolic::plan_trace(plan, cfg, kMem).peak_fold_bytes())
        << layer.name;
  }
}

// --- liveness planning -------------------------------------------------------

void check_liveness_invariants(const NetworkPlan& plan) {
  // Staging is the double-buffered worst per-fold footprint.
  std::uint64_t max_peak = 0;
  for (const std::size_t i : plan.on_array) {
    max_peak = std::max(max_peak, systolic::plan_peak_fold_bytes(
                                      plan.layer_plans[i], plan.cfg,
                                      plan.mem));
  }
  EXPECT_EQ(plan.staging_bytes, 2 * max_peak);

  const std::uint64_t sram =
      static_cast<std::uint64_t>(plan.mem.sram_bytes);
  for (std::size_t a = 0; a < plan.buffers.size(); ++a) {
    const ActivationBuffer& ba = plan.buffers[a];
    if (ba.spilled) {
      continue;
    }
    // Resident buffers sit between the staging region and SRAM capacity.
    EXPECT_GE(ba.offset, plan.staging_bytes);
    EXPECT_LE(ba.offset + ba.bytes, sram);
    // Two buffers live at the same step never overlap in bytes.
    for (std::size_t b = a + 1; b < plan.buffers.size(); ++b) {
      const ActivationBuffer& bb = plan.buffers[b];
      if (bb.spilled || ba.last_step < bb.first_step ||
          bb.last_step < ba.first_step) {
        continue;
      }
      const bool disjoint = ba.offset + ba.bytes <= bb.offset ||
                            bb.offset + bb.bytes <= ba.offset;
      EXPECT_TRUE(disjoint)
          << "live buffers overlap: [" << ba.offset << ", "
          << ba.offset + ba.bytes << ") vs [" << bb.offset << ", "
          << bb.offset + bb.bytes << ")";
    }
  }
  // High water always covers at least the staging region.
  EXPECT_GE(plan.sram_high_water, plan.staging_bytes);
}

TEST(Liveness, InvariantsHoldAcrossZooVariants) {
  const ArrayConfig cfg = systolic::square_array(64);
  for (nets::NetworkId id : nets::paper_networks()) {
    for (core::NetworkVariant variant : core::all_network_variants()) {
      const VariantBuild build = build_variant(id, variant, cfg);
      for (SchedMode mode : {SchedMode::kPerLayer, SchedMode::kFused}) {
        const NetworkPlan plan = plan_network(build.model, cfg, kMem, mode);
        check_liveness_invariants(plan);
      }
    }
  }
}

TEST(Liveness, FuseStageLifetimesCoverTheConcatConsumer) {
  // row at step 0, col at step 1, pw at step 2: the row output must stay
  // live through the pointwise (it is half of the concatenated input), and
  // the stage input must stay live through the col branch.
  nets::NetworkModel model;
  model.name = "fuse_stage";
  LayerDesc row = nn::make_fuse_row("row", 4, 8, 8, 3, 1, 1);
  LayerDesc col = nn::make_fuse_col("col", 4, 8, 8, 3, 1, 1);
  row.fuse_slot = 0;
  col.fuse_slot = 0;
  model.layers = {row, col, nn::make_pointwise("pw", 8, 8, 8, 16)};
  const ArrayConfig cfg = systolic::square_array(8);
  const NetworkPlan plan =
      plan_network(model, cfg, kMem, SchedMode::kPerLayer);
  ASSERT_EQ(plan.buffers.size(), 4u);  // input + 3 outputs
  EXPECT_EQ(plan.buffers[0].last_step, 1u);  // input read by row AND col
  EXPECT_EQ(plan.buffers[1].last_step, 2u);  // row output read by pw
  check_liveness_invariants(plan);
}

TEST(Liveness, TinySramSpillsInsteadOfOverlapping) {
  const ArrayConfig cfg = systolic::square_array(64);
  systolic::MemoryConfig mem = kMem;
  mem.sram_bytes = 1;  // nothing fits; staging exceeds capacity too
  const auto v2 = nets::build_network(nets::NetworkId::kMobileNetV2);
  const NetworkPlan plan = plan_network(v2, cfg, mem, SchedMode::kFused);
  for (const ActivationBuffer& buffer : plan.buffers) {
    EXPECT_TRUE(buffer.spilled);
  }
  // Spilled intermediates make every fusion illegal.
  EXPECT_TRUE(plan.fused_pairs.empty());
  // Spilling never changes the cycle axis.
  const NetworkPlan reference =
      plan_network(v2, cfg, kMem, SchedMode::kPerLayer);
  EXPECT_EQ(plan.total_cycles, reference.total_cycles);
}

// --- schedule structure ------------------------------------------------------

void check_segments_contiguous(const NetworkPlan& plan) {
  std::uint64_t cursor = 0;
  for (const ScheduleSegment& seg : plan.segments) {
    EXPECT_EQ(seg.start_cycle, cursor);
    EXPECT_GE(seg.end_cycle, seg.start_cycle);
    cursor = seg.end_cycle;
  }
  EXPECT_EQ(cursor, plan.total_cycles);
  std::uint64_t expected = 0;
  for (const std::size_t i : plan.on_array) {
    expected += plan.layer_latency[i].cycles;
  }
  EXPECT_EQ(plan.total_cycles, expected);
}

TEST(Schedule, SegmentsContiguousAcrossZooVariants) {
  const ArrayConfig cfg = systolic::square_array(64);
  for (nets::NetworkId id : nets::paper_networks()) {
    for (core::NetworkVariant variant : core::all_network_variants()) {
      const VariantBuild build = build_variant(id, variant, cfg);
      for (SchedMode mode : {SchedMode::kPerLayer, SchedMode::kFused}) {
        check_segments_contiguous(
            plan_network(build.model, cfg, kMem, mode));
      }
    }
  }
}

TEST(Schedule, InterleavedPairAlternatesProducerAndConsumer) {
  // 16x16 array, 24x24 positions -> 576 positions = 36 consumer stripes:
  // the producer's folds must be spread across them, not all up front.
  const nets::NetworkModel model = two_layer_chain(8, 24, 16);
  const ArrayConfig cfg = systolic::square_array(16);
  const NetworkPlan plan =
      plan_network(model, cfg, kMem, SchedMode::kFused);
  ASSERT_EQ(plan.fused_pairs.size(), 1u);
  ASSERT_GT(plan.segments.size(), 2u) << "pair did not interleave";
  bool saw_producer_after_consumer = false;
  bool seen_consumer = false;
  for (const ScheduleSegment& seg : plan.segments) {
    EXPECT_TRUE(seg.fused);
    if (seg.layer_index == 1) {
      seen_consumer = true;
    } else if (seen_consumer) {
      saw_producer_after_consumer = true;
    }
  }
  EXPECT_TRUE(saw_producer_after_consumer)
      << "all producer folds ran before the first consumer stripe";
  check_segments_contiguous(plan);
}

TEST(Schedule, ActivationGlueDoesNotBlockFusionButPoolDoes) {
  const ArrayConfig cfg = systolic::square_array(16);
  nets::NetworkModel with_act = two_layer_chain(8, 8, 16);
  with_act.layers.insert(with_act.layers.begin() + 1,
                         activation_glue(8, 8, 8));
  EXPECT_EQ(
      plan_network(with_act, cfg, kMem, SchedMode::kFused)
          .fused_pairs.size(),
      1u);

  nets::NetworkModel with_pool = two_layer_chain(8, 8, 16);
  with_pool.layers.insert(with_pool.layers.begin() + 1, pool_glue(8, 8, 8));
  EXPECT_TRUE(plan_network(with_pool, cfg, kMem, SchedMode::kFused)
                  .fused_pairs.empty());
}

TEST(Schedule, FuseTripleFusesBothBranches) {
  nets::NetworkModel model;
  model.name = "fuse_stage";
  LayerDesc row = nn::make_fuse_row("row", 4, 12, 12, 3, 1, 1);
  LayerDesc col = nn::make_fuse_col("col", 4, 12, 12, 3, 1, 1);
  row.fuse_slot = 0;
  col.fuse_slot = 0;
  model.layers = {row, col, nn::make_pointwise("pw", 8, 12, 12, 16)};
  const ArrayConfig cfg = systolic::square_array(8);
  const NetworkPlan plan =
      plan_network(model, cfg, kMem, SchedMode::kFused);
  ASSERT_EQ(plan.fused_pairs.size(), 1u);
  const FusedPair& pair = plan.fused_pairs.front();
  EXPECT_EQ(pair.producer, 0u);
  EXPECT_EQ(pair.producer2, 1u);
  EXPECT_EQ(pair.consumer, 2u);
  EXPECT_EQ(pair.saved_output_bytes,
            plan.layer_traffic[0].output_bytes +
                plan.layer_traffic[1].output_bytes);
  EXPECT_EQ(pair.saved_input_bytes, plan.layer_traffic[2].input_bytes);
  check_segments_contiguous(plan);
  // The roofline charges the triple as one unit with the savings applied.
  const NetworkRoofline fused = plan_roofline(plan);
  const NetworkRoofline per = plan_roofline(
      plan_network(model, cfg, kMem, SchedMode::kPerLayer));
  EXPECT_EQ(per.total_bytes - fused.total_bytes,
            pair.saved_output_bytes + pair.saved_input_bytes);
  EXPECT_EQ(fused.compute_cycles, per.compute_cycles);
}

// --- roofline contract -------------------------------------------------------

TEST(Roofline, PerLayerPlanMatchesLegacyWalk) {
  const ArrayConfig cfg = systolic::square_array(64);
  const auto v2 = nets::build_network(nets::NetworkId::kMobileNetV2);
  const NetworkPlan plan =
      plan_network(v2, cfg, kMem, SchedMode::kPerLayer);
  const NetworkRoofline roofline = plan_roofline(plan);

  NetworkRoofline legacy;
  for (const LayerDesc& layer : v2.layers) {
    const std::uint64_t compute = layer_latency(layer, cfg).cycles;
    const systolic::TrafficEstimate traffic =
        systolic::plan_traffic(systolic::lower(layer, cfg), cfg, kMem);
    const std::uint64_t memory = traffic.memory_cycles(kMem);
    legacy.compute_cycles += compute;
    legacy.memory_cycles += memory;
    legacy.bound_cycles += std::max(compute, memory);
    legacy.total_bytes += traffic.total_bytes();
    if (memory > compute && compute > 0) {
      ++legacy.memory_bound_layers;
    }
  }
  EXPECT_EQ(roofline.compute_cycles, legacy.compute_cycles);
  EXPECT_EQ(roofline.memory_cycles, legacy.memory_cycles);
  EXPECT_EQ(roofline.bound_cycles, legacy.bound_cycles);
  EXPECT_EQ(roofline.total_bytes, legacy.total_bytes);
  EXPECT_EQ(roofline.memory_bound_layers, legacy.memory_bound_layers);

  // network_roofline is closed-form and per-layer by definition; the plan
  // path is its oracle. The bandwidths span what bench_ablation_memory
  // sweeps: memory-bound, the default, and compute-bound.
  for (const double bandwidth : {1.0, 16.0, 1e9}) {
    systolic::MemoryConfig mem;
    mem.dram_bytes_per_cycle = bandwidth;
    for (nets::NetworkId id : nets::paper_networks()) {
      for (core::NetworkVariant variant :
           {core::NetworkVariant::kBaseline,
            core::NetworkVariant::kFuseHalf}) {
        const VariantBuild build = build_variant(id, variant, cfg);
        const NetworkRoofline got = network_roofline(build.model, cfg, mem);
        const NetworkRoofline want = plan_roofline(
            plan_network(build.model, cfg, mem, SchedMode::kPerLayer));
        const std::string label =
            build.model.name + " @ " + std::to_string(bandwidth) + " B/cy";
        EXPECT_EQ(got.compute_cycles, want.compute_cycles) << label;
        EXPECT_EQ(got.memory_cycles, want.memory_cycles) << label;
        EXPECT_EQ(got.bound_cycles, want.bound_cycles) << label;
        EXPECT_EQ(got.total_bytes, want.total_bytes) << label;
        EXPECT_EQ(got.memory_bound_layers, want.memory_bound_layers)
            << label;
      }
    }
  }
}

TEST(Roofline, FusedNeverSlowerAcrossZooVariants) {
  const ArrayConfig cfg = systolic::square_array(64);
  for (nets::NetworkId id : nets::paper_networks()) {
    for (core::NetworkVariant variant : core::all_network_variants()) {
      const VariantBuild build = build_variant(id, variant, cfg);
      const NetworkRoofline per = plan_roofline(
          plan_network(build.model, cfg, kMem, SchedMode::kPerLayer));
      const NetworkRoofline fused = plan_roofline(
          plan_network(build.model, cfg, kMem, SchedMode::kFused));
      EXPECT_EQ(fused.compute_cycles, per.compute_cycles)
          << build.model.name;
      EXPECT_LE(fused.total_bytes, per.total_bytes) << build.model.name;
      EXPECT_LE(fused.memory_cycles, per.memory_cycles)
          << build.model.name;
      EXPECT_LE(fused.bound_cycles, per.bound_cycles) << build.model.name;
    }
  }
}

TEST(Roofline, MobileNetV2FusesAndSavesTraffic) {
  const ArrayConfig cfg = systolic::square_array(64);
  for (core::NetworkVariant variant :
       {core::NetworkVariant::kBaseline, core::NetworkVariant::kFuseFull,
        core::NetworkVariant::kFuseHalf}) {
    const VariantBuild build =
        build_variant(nets::NetworkId::kMobileNetV2, variant, cfg);
    const NetworkPlan fused_plan =
        plan_network(build.model, cfg, kMem, SchedMode::kFused);
    EXPECT_GT(fused_plan.fused_pairs.size(), 0u);
    const NetworkRoofline per = plan_roofline(
        plan_network(build.model, cfg, kMem, SchedMode::kPerLayer));
    const NetworkRoofline fused = plan_roofline(fused_plan);
    EXPECT_LT(fused.memory_cycles, per.memory_cycles)
        << core::network_variant_name(variant);

    // roofline_over walks the groups with one cursor, so a pair list out
    // of producer order, with overlapping groups, or past the last layer
    // must fail loudly rather than charge a layer twice or not at all.
    const NetworkEval ev =
        eval_network_fast(build.model, cfg, kMem, SchedMode::kFused);
    const std::vector<FusedPair>& pairs = ev.schedule.fused_pairs;
    ASSERT_GE(pairs.size(), 2u);
    EXPECT_EQ(roofline_over(ev.layers, pairs, kMem).bound_cycles,
              fused.bound_cycles);
    std::vector<FusedPair> swapped = pairs;
    std::swap(swapped[0], swapped[1]);
    std::vector<FusedPair> overlapping = pairs;
    overlapping[1].producer = overlapping[0].consumer;
    std::vector<FusedPair> outside = pairs;
    outside.back().consumer = ev.layers.size();
    for (const std::vector<FusedPair>* bad :
         {&swapped, &overlapping, &outside}) {
      EXPECT_THROW(roofline_over(ev.layers, *bad, kMem), util::Error);
    }
  }
}

TEST(Roofline, ResNet50HasNoPairsAndIdenticalRooflines) {
  const ArrayConfig cfg = systolic::square_array(64);
  const auto resnet = nets::build_network(nets::NetworkId::kResNet50);
  const NetworkPlan fused_plan =
      plan_network(resnet, cfg, kMem, SchedMode::kFused);
  EXPECT_TRUE(fused_plan.fused_pairs.empty());
  const NetworkRoofline per = plan_roofline(
      plan_network(resnet, cfg, kMem, SchedMode::kPerLayer));
  const NetworkRoofline fused = plan_roofline(fused_plan);
  EXPECT_EQ(fused.bound_cycles, per.bound_cycles);
  EXPECT_EQ(fused.memory_cycles, per.memory_cycles);
  EXPECT_EQ(fused.total_bytes, per.total_bytes);
  EXPECT_EQ(fused.memory_bound_layers, per.memory_bound_layers);
}

// --- timeline view -----------------------------------------------------------

TEST(Timeline, FusedPlanMergesGroupsIntoSingleEntries) {
  const ArrayConfig cfg = systolic::square_array(64);
  const VariantBuild build = build_variant(
      nets::NetworkId::kMobileNetV2, core::NetworkVariant::kBaseline, cfg);
  const NetworkPlan per =
      plan_network(build.model, cfg, kMem, SchedMode::kPerLayer);
  const NetworkPlan fused =
      plan_network(build.model, cfg, kMem, SchedMode::kFused);
  const Timeline per_timeline = plan_timeline(per, build.model);
  const Timeline fused_timeline = plan_timeline(fused, build.model);
  EXPECT_EQ(per_timeline.total_cycles, fused_timeline.total_cycles);
  ASSERT_GT(fused.fused_pairs.size(), 0u);
  // Every pair removes one entry (producer and consumer share a bar).
  EXPECT_EQ(fused_timeline.entries.size() + fused.fused_pairs.size(),
            per_timeline.entries.size());
}

// --- executor ----------------------------------------------------------------

TEST(ExecuteNetwork, BitIdenticalAcrossModes) {
  nets::NetworkModel model = two_layer_chain(6, 10, 9);
  model.layers.push_back(nn::make_depthwise("dw2", 9, 10, 10, 3, 1, 1));
  model.layers.push_back(nn::make_pointwise("pw2", 9, 10, 10, 4));
  ArrayConfig cfg = systolic::square_array(8);
  cfg.overlap_fold_drain = false;  // what the simulator measures

  const std::vector<Tensor> weights = {
      random_tensor(Shape{6, 1, 3, 3}, 1),
      random_tensor(Shape{9, 6, 1, 1}, 2),
      random_tensor(Shape{9, 1, 3, 3}, 3),
      random_tensor(Shape{4, 9, 1, 1}, 4),
  };
  const Tensor input = random_tensor(Shape{1, 6, 10, 10}, 5);

  const NetworkPlan per =
      plan_network(model, cfg, kMem, SchedMode::kPerLayer);
  const NetworkPlan fused =
      plan_network(model, cfg, kMem, SchedMode::kFused);
  EXPECT_EQ(fused.fused_pairs.size(), 2u);

  const NetworkExecution base =
      execute_network_on_array(model, weights, input, per, cfg);
  EXPECT_EQ(base.cycles, per.total_cycles);

  for (const NetworkPlan* plan : {&per, &fused}) {
    const NetworkExecution exec =
        execute_network_on_array(model, weights, input, *plan, cfg);
    EXPECT_EQ(exec.cycles, plan->total_cycles);
    EXPECT_EQ(exec.folds, base.folds);
    EXPECT_EQ(exec.mac_ops, base.mac_ops);
    ASSERT_EQ(exec.output.shape(), base.output.shape());
    EXPECT_EQ(std::memcmp(exec.output.data(), base.output.data(),
                          static_cast<std::size_t>(
                              base.output.num_elements()) *
                              sizeof(float)),
              0)
        << "outputs diverge across schedule modes";
  }
}

// --- telemetry ---------------------------------------------------------------

TEST(Telemetry, PlanNetworkRecordsPairAndSramMetrics) {
  if (!util::telemetry_enabled()) GTEST_SKIP() << "FUSE_TELEMETRY off";
  // MobileNet-V2 in 1 MiB of SRAM: its large early activations spill, so
  // the depthwise -> pointwise pairs around them are rejected, and the
  // later ones fuse.
  const ArrayConfig cfg = systolic::square_array(64);
  systolic::MemoryConfig mem = kMem;
  mem.sram_bytes = 1024 * 1024;
  const nets::NetworkModel model =
      nets::build_network(nets::NetworkId::kMobileNetV2);
  util::Counter& plans = util::metrics().counter("netplan.plans");
  util::Counter& pairs = util::metrics().counter("netplan.pairs_fused");
  util::Counter& rejected = util::metrics().counter("netplan.pairs_rejected");
  util::Counter& saved = util::metrics().counter("netplan.saved_bytes");
  util::Counter& spilled = util::metrics().counter("netplan.buffers_spilled");
  const std::uint64_t plans0 = plans.value();
  const std::uint64_t pairs0 = pairs.value();
  const std::uint64_t rejected0 = rejected.value();
  const std::uint64_t saved0 = saved.value();
  const std::uint64_t spilled0 = spilled.value();
  const NetworkPlan plan = plan_network(model, cfg, mem, SchedMode::kFused);
  EXPECT_EQ(plans.value(), plans0 + 1);
  EXPECT_EQ(pairs.value(), pairs0 + plan.fused_pairs.size());
  std::uint64_t expected_saved = 0;
  for (const FusedPair& pair : plan.fused_pairs) {
    expected_saved += pair.saved_output_bytes + pair.saved_input_bytes;
  }
  EXPECT_EQ(saved.value(), saved0 + expected_saved);
  // Every depthwise layer heads a candidate pair: its pointwise follows
  // with only activation glue between and on the same grid. So each one
  // that did not fuse was rejected.
  std::uint64_t depthwise = 0;
  for (const LayerDesc& layer : model.layers) {
    depthwise += layer.kind == OpKind::kDepthwiseConv ? 1 : 0;
  }
  std::uint64_t expected_spilled = 0;
  for (const ActivationBuffer& buffer : plan.buffers) {
    expected_spilled += buffer.spilled ? 1 : 0;
  }
  EXPECT_GT(plan.fused_pairs.size(), 0u);
  EXPECT_GT(depthwise, plan.fused_pairs.size());
  EXPECT_GT(expected_spilled, 0u);
  EXPECT_EQ(rejected.value(),
            rejected0 + depthwise - plan.fused_pairs.size());
  EXPECT_EQ(spilled.value(), spilled0 + expected_spilled);
  EXPECT_EQ(static_cast<std::uint64_t>(
                util::metrics().gauge("netplan.sram_high_water").value()),
            plan.sram_high_water);
}

}  // namespace
}  // namespace fuse::sched
