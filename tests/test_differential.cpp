// The differential harness: one seeded generator of layer x array x batch
// cases and one oracle chain per case.
//
// The paper's speedups are modeled cycles (§V-A3). They are trusted
// because independent implementations agree on them: the closed forms
// (sched/eval_fast.hpp), the plan fold (systolic::lower), the priced fold
// walk and its attribution split, the fold tracer, the PE-grid simulator's
// two engines, the layer executor and the nn reference operators. Each
// case runs every link its configuration allows:
//
//   1. the closed form at batch 1 and at the case's batch equals the plan
//      fold at that batch field for field, and each plan charges the
//      layer's MACs (a strided FuSe line computes its dense width,
//      systolic::fuse_dense_width);
//   2. per op, the fold walk sums to the op's cycles, folds and MACs, and
//      its per-fold stream windows sum to decompose_primitive's compute;
//   3. on output-stationary arrays (under kTraceFolds), the fold trace
//      spans the plan's cycles and folds, and its peak is
//      plan_peak_fold_bytes;
//   4. on pipelined arrays under kWorkBound, run_plan on both simulator
//      engines equals the plan fold with drain overlap off, pe_busy
//      bit-equal;
//   5. for the kinds the executor runs (batch 1), under the same bound:
//      execute_layer_on_array on both engines under every available kernel
//      ISA, outputs and counters memcmp-equal, cycles equal to the fold,
//      outputs equal to the nn reference within allclose(1e-3, 1e-4);
//   6. on pointwise layers on pipelined arrays, batching never beats
//      perfect scaling: cycles(1) <= cycles(b) <= b * cycles(1). (Outside
//      that scope the bound does not hold: on transparent arrays the
//      upper half fails for every on-array kind.)
//
// The budget is one compiled-in seed and case count, asserted below with
// each link's minimum; to soak, raise kCases in a local copy of this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "nn/kernels.hpp"
#include "nn/layer.hpp"
#include "nn/ops.hpp"
#include "oracles.hpp"
#include "sched/attribution.hpp"
#include "sched/eval_fast.hpp"
#include "sched/execute.hpp"
#include "systolic/mapping.hpp"
#include "systolic/sim.hpp"
#include "systolic/trace.hpp"
#include "util/rng.hpp"

namespace fuse::test {
namespace {

using nn::LayerDesc;
using nn::OpKind;
using systolic::ArrayConfig;
using systolic::Dataflow;
using systolic::Datapath;
using systolic::LatencyEstimate;
using systolic::MappingPlan;
using systolic::MemoryConfig;
using systolic::Pipelining;
using systolic::PrimitiveOp;
using systolic::SimBackend;
using tensor::Shape;
using tensor::Tensor;

constexpr std::uint64_t kSeed = 20261017;
constexpr int kCases = 12000;
/// Reference-engine work (plan cycles x PEs) up to which a case simulates
/// and executes.
constexpr std::uint64_t kWorkBound = std::uint64_t{1} << 16;
/// Folds up to which an output-stationary case materializes its trace.
constexpr std::uint64_t kTraceFolds = std::uint64_t{1} << 14;

constexpr OpKind kOnArrayKinds[] = {
    OpKind::kStandardConv,  OpKind::kGroupedConv, OpKind::kDepthwiseConv,
    OpKind::kPointwiseConv, OpKind::kFuseRowConv, OpKind::kFuseColConv,
    OpKind::kFullyConnected};
constexpr OpKind kGlueKinds[] = {OpKind::kAvgPool, OpKind::kMaxPool,
                                 OpKind::kGlobalAvgPool, OpKind::kActivation,
                                 OpKind::kElementwiseAdd};
constexpr Dataflow kDataflows[] = {Dataflow::kOutputStationary,
                                   Dataflow::kWeightStationary,
                                   Dataflow::kInputStationary};
constexpr Pipelining kPipelinings[] = {Pipelining::kPipelined,
                                       Pipelining::kTransparent2,
                                       Pipelining::kTransparent4};
constexpr Datapath kDatapaths[] = {Datapath::kInt8, Datapath::kFp16,
                                   Datapath::kFp32};

// --- the generator -----------------------------------------------------------

struct Case {
  LayerDesc layer;
  ArrayConfig cfg;
  MemoryConfig mem;
  std::int64_t batch = 1;
  bool zero_heavy = false;  // operands with many +0.0 and -0.0
};

/// Uniform integer in [lo, hi].
std::int64_t pick(util::Rng& rng, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  rng.uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
}

/// A conv-family layer with independent per-axis geometry (the nn::make_*
/// factories build square kernels and one stride).
LayerDesc conv_like(OpKind kind, std::int64_t in_c, std::int64_t out_c,
                    std::int64_t h, std::int64_t w, std::int64_t k_h,
                    std::int64_t k_w, std::int64_t stride_h,
                    std::int64_t stride_w, std::int64_t pad_h,
                    std::int64_t pad_w, std::int64_t groups) {
  LayerDesc layer;
  layer.kind = kind;
  layer.name = nn::op_kind_name(kind);
  layer.in_c = in_c;
  layer.out_c = out_c;
  layer.in_h = h;
  layer.in_w = w;
  layer.kernel_h = k_h;
  layer.kernel_w = k_w;
  layer.stride_h = stride_h;
  layer.stride_w = stride_w;
  layer.pad_h = pad_h;
  layer.pad_w = pad_w;
  layer.groups = groups;
  layer.out_h = (h + 2 * pad_h - k_h) / stride_h + 1;
  layer.out_w = (w + 2 * pad_w - k_w) / stride_w + 1;
  return layer;
}

/// One layer of `kind`: H and W from 1 (so 1x1 spatial), padding 0-3 per
/// axis, a kernel of 1-7 per axis that fits the padded input (so it may
/// exceed the input; rectangular on the 2-D kinds), stride 1-4 per axis
/// (so stride > kernel), and channel counts a third of the time one below,
/// at or above a multiple of the array side they fold over.
LayerDesc draw_layer(util::Rng& rng, OpKind kind, const ArrayConfig& cfg,
                     bool small) {
  const std::int64_t extent = small ? 12 : 40;
  const std::int64_t h = pick(rng, 1, extent);
  const std::int64_t w = pick(rng, 1, extent);
  const std::int64_t pad_h = pick(rng, 0, 3);
  const std::int64_t pad_w = pick(rng, 0, 3);
  const std::int64_t k_h =
      pick(rng, 1, std::min<std::int64_t>(7, h + 2 * pad_h));
  const std::int64_t k_w =
      pick(rng, 1, std::min<std::int64_t>(7, w + 2 * pad_w));
  const std::int64_t stride_h = pick(rng, 1, 4);
  const std::int64_t stride_w = pick(rng, 1, 4);
  const auto channels = [&] {
    const std::int64_t side = pick(rng, 0, 1) == 0 ? cfg.rows : cfg.cols;
    if (pick(rng, 0, 2) == 0) {
      return std::max<std::int64_t>(
          1, side * pick(rng, 1, 2) + pick(rng, -1, 1));
    }
    return pick(rng, 1, small ? 12 : 130);
  };
  switch (kind) {
    case OpKind::kStandardConv:
      return conv_like(kind, channels(), channels(), h, w, k_h, k_w,
                       stride_h, stride_w, pad_h, pad_w, 1);
    case OpKind::kGroupedConv: {
      // Per-group channel counts are what the array folds over.
      const std::int64_t groups = pick(rng, 2, small ? 4 : 8);
      return conv_like(kind, groups * channels(), groups * channels(), h, w,
                       k_h, k_w, stride_h, stride_w, pad_h, pad_w, groups);
    }
    case OpKind::kDepthwiseConv: {
      const std::int64_t c = channels();
      return conv_like(kind, c, c, h, w, k_h, k_w, stride_h, stride_w, pad_h,
                       pad_w, c);
    }
    case OpKind::kPointwiseConv:
      return nn::make_pointwise("pw", channels(), h, w, channels());
    case OpKind::kFuseRowConv: {
      // nn::make_fuse_row/col pin the pad across the lines (row pad_h,
      // col pad_w) to 0; drawn here, it puts zero lines on the array.
      const std::int64_t c = channels();
      return conv_like(kind, c, c, h, w, 1, k_w, stride_w, stride_w, pad_h,
                       pad_w, c);
    }
    case OpKind::kFuseColConv: {
      const std::int64_t c = channels();
      return conv_like(kind, c, c, h, w, k_h, 1, stride_h, stride_h, pad_h,
                       pad_w, c);
    }
    case OpKind::kFullyConnected:
      return nn::make_fully_connected("fc", channels(), channels(),
                                      /*bias=*/false);
    default: {
      // Glue costs nothing on any path, whatever its geometry.
      const std::int64_t c = channels();
      return conv_like(kind, c, c, h, w, k_h, k_w, stride_h, stride_w, pad_h,
                       pad_w, c);
    }
  }
}

/// One case. Three in four are small (arrays and inputs up to 12), so they
/// simulate and execute; the rest reach the closed forms' fold edges on
/// arrays up to 70 and inputs up to 40. Every dataflow x pipelining x
/// datapath x broadcast x drain overlap combination is drawn, half the
/// arrays pipelined (only those simulate); batches 1-64.
Case draw_case(util::Rng& rng) {
  Case c;
  const bool small = pick(rng, 0, 3) != 0;
  const std::int64_t side = small ? 12 : 70;
  c.cfg.rows = pick(rng, 1, side);
  c.cfg.cols = pick(rng, 0, 2) == 0 ? c.cfg.rows : pick(rng, 1, side);
  c.cfg.dataflow = kDataflows[pick(rng, 0, 2)];
  c.cfg.pipelining = pick(rng, 0, 1) == 0 ? Pipelining::kPipelined
                                          : kPipelinings[pick(rng, 1, 2)];
  c.cfg.datapath = kDatapaths[pick(rng, 0, 2)];
  c.cfg.broadcast_links = pick(rng, 0, 1) == 0;
  c.cfg.overlap_fold_drain = pick(rng, 0, 1) == 0;
  c.mem.dtype_bytes = c.cfg.datapath_bytes();
  c.batch = pick(rng, 1, 64);
  c.zero_heavy = pick(rng, 0, 1) == 0;
  const OpKind kind = pick(rng, 0, 4) != 0 ? kOnArrayKinds[pick(rng, 0, 6)]
                                           : kGlueKinds[pick(rng, 0, 4)];
  c.layer = draw_layer(rng, kind, c.cfg, small);
  return c;
}

std::string describe(const Case& c) {
  return c.layer.to_string() + " on " + c.cfg.to_string() + " " +
         systolic::dataflow_name(c.cfg.dataflow) +
         (c.cfg.overlap_fold_drain ? " overlap" : "") + " batch " +
         std::to_string(c.batch);
}

/// Index of the case's dataflow x pipelining x datapath x broadcast x
/// overlap combination, in [0, 108).
int combination(const ArrayConfig& cfg) {
  return (((static_cast<int>(cfg.dataflow) * 3 +
            static_cast<int>(cfg.pipelining)) *
               3 +
           static_cast<int>(cfg.datapath)) *
              2 +
          (cfg.broadcast_links ? 1 : 0)) *
             2 +
         (cfg.overlap_fold_drain ? 1 : 0);
}

// --- oracles -----------------------------------------------------------------

/// MACs a batch-1 plan of `layer` performs: the layer's own, except that a
/// strided FuSe line computes its dense width.
std::uint64_t expected_macs(const LayerDesc& layer) {
  const auto dense = [](std::int64_t in, std::int64_t pad, std::int64_t taps,
                        std::int64_t stride, std::int64_t out) {
    return stride > 1 ? in + 2 * pad - taps + 1 : out;
  };
  switch (layer.kind) {
    case OpKind::kFuseRowConv:
      return static_cast<std::uint64_t>(
          layer.out_c * layer.out_h *
          dense(layer.in_w, layer.pad_w, layer.kernel_w, layer.stride_w,
                layer.out_w) *
          layer.kernel_w);
    case OpKind::kFuseColConv:
      return static_cast<std::uint64_t>(
          layer.out_c * layer.out_w *
          dense(layer.in_h, layer.pad_h, layer.kernel_h, layer.stride_h,
                layer.out_h) *
          layer.kernel_h);
    default:
      return layer.macs();
  }
}

Tensor operand(Shape shape, bool zero_heavy, util::Rng& rng) {
  Tensor t(std::move(shape));
  t.fill_uniform(rng, -1.0F, 1.0F);
  if (zero_heavy) {
    // Exact zeros of both signs exercise the +-0.0 corners of the fast
    // engine's bubble analysis.
    for (std::int64_t i = 0; i < t.num_elements(); i += 3) {
      t[i] = 0.0F;
    }
    for (std::int64_t i = 1; i < t.num_elements(); i += 7) {
      t[i] = -0.0F;
    }
  }
  return t;
}

/// nn's answer for `layer`: conv2d for the conv kinds, linear for FC.
Tensor nn_reference(const LayerDesc& layer, const Tensor& input,
                    const Tensor& weight) {
  if (layer.kind == OpKind::kFullyConnected) {
    return nn::linear(input.reshaped(Shape{1, layer.in_c}), weight, nullptr)
        .reshaped(Shape{1, layer.out_c, 1, 1});
  }
  nn::Conv2dParams p;
  p.stride_h = layer.stride_h;
  p.stride_w = layer.stride_w;
  p.pad_h = layer.pad_h;
  p.pad_w = layer.pad_w;
  p.groups = layer.groups;
  return nn::conv2d(input, weight, nullptr, p);
}

::testing::AssertionResult bits_equal(const Tensor& actual,
                                      const Tensor& expected) {
  if (!(actual.shape() == expected.shape())) {
    return ::testing::AssertionFailure()
           << "shape " << actual.shape().to_string() << " vs "
           << expected.shape().to_string();
  }
  if (std::memcmp(actual.data(), expected.data(),
                  static_cast<std::size_t>(actual.num_elements()) *
                      sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << "tensor bits differ";
  }
  return ::testing::AssertionSuccess();
}

/// Runs `check(isa)` once for each kernel ISA this machine can execute:
/// the check hands it to the fast engine's f64 kernels, so an AVX2
/// machine compares the scalar fallback with the reference engine too.
template <typename Check>
void for_each_kernel_isa(const Check& check) {
  for (const nn::KernelIsa isa :
       {nn::KernelIsa::kScalar, nn::KernelIsa::kAvx2}) {
    if (nn::kernel_isa_available(isa)) {
      SCOPED_TRACE(nn::kernel_isa_name(isa));
      check(isa);
    }
  }
}

// --- the chain ---------------------------------------------------------------

struct Counts {
  int closed_forms = 0;
  int traced = 0;
  int simulated = 0;
  std::map<nn::KernelIsa, int> executed;
  int batch_bounds = 0;
};

/// Links 1 and 6: the closed form at batch 1 and at the case's batch
/// against the plan folds, the MACs each plan charges, and the pointwise
/// batching bound.
void check_closed_forms(const Case& c, const MappingPlan& plan,
                        const MappingPlan& batched, Counts& counts) {
  expect_matches_plan(sched::eval_layer_fast(c.layer, c.cfg, c.mem), plan,
                      c.cfg, c.mem);
  expect_matches_plan(sched::eval_layer_fast(c.layer, c.cfg, c.mem, c.batch),
                      batched, c.cfg, c.mem);
  counts.closed_forms += 2;
  const std::uint64_t macs = plan.ops.empty() ? 0 : expected_macs(c.layer);
  EXPECT_EQ(plan.total_latency().mac_ops, macs);
  EXPECT_EQ(batched.total_latency().mac_ops,
            macs * static_cast<std::uint64_t>(c.batch));
  if (c.layer.kind == OpKind::kPointwiseConv &&
      c.cfg.pipelining == Pipelining::kPipelined) {
    const std::uint64_t one = plan.total_latency().cycles;
    const std::uint64_t many = batched.total_latency().cycles;
    EXPECT_LE(one, many);
    EXPECT_LE(many, static_cast<std::uint64_t>(c.batch) * one);
    ++counts.batch_bounds;
  }
}

/// Link 2: per op, the priced fold walk sums to the op's cost, and the
/// walk's per-fold MAC windows (MACs over the fold's PEs) sum to the
/// compute half of decompose_primitive.
void check_fold_walk(const MappingPlan& plan, const ArrayConfig& cfg) {
  for (const PrimitiveOp& op : plan.ops) {
    LatencyEstimate walked;
    std::uint64_t windows = 0;
    systolic::for_each_fold(
        op, cfg,
        [&](const systolic::FoldTile& tile, std::uint64_t cycles,
            std::uint64_t macs) {
          walked.cycles += cycles;
          walked.folds += 1;
          walked.mac_ops += macs;
          windows += macs / static_cast<std::uint64_t>(tile.rows * tile.cols);
        });
    const LatencyEstimate total = op.total();
    EXPECT_EQ(walked.cycles, total.cycles) << primitive_kind_name(op.kind);
    EXPECT_EQ(walked.folds, total.folds) << primitive_kind_name(op.kind);
    EXPECT_EQ(walked.mac_ops, total.mac_ops) << primitive_kind_name(op.kind);
    const sched::CycleSplit split = sched::decompose_primitive(op, cfg);
    EXPECT_EQ(split.compute, windows) << primitive_kind_name(op.kind);
    EXPECT_EQ(split.total(), total.cycles) << primitive_kind_name(op.kind);
  }
}

/// Link 3: the materialized fold trace against the plan fold and the
/// closed-form peak footprint.
void check_trace(const Case& c, const MappingPlan& plan, Counts& counts) {
  const LatencyEstimate total = plan.total_latency();
  if (c.cfg.dataflow != Dataflow::kOutputStationary ||
      total.folds > kTraceFolds) {
    return;
  }
  const systolic::FoldTrace trace = systolic::plan_trace(plan, c.cfg, c.mem);
  EXPECT_EQ(trace.total_cycles, total.cycles);
  EXPECT_EQ(trace.folds.size(), total.folds);
  EXPECT_EQ(trace.peak_fold_bytes(),
            systolic::plan_peak_fold_bytes(plan, c.cfg, c.mem));
  ++counts.traced;
}

/// Links 4 and 5: the simulator and the executor, both engines, with drain
/// overlap off (the simulator always pays each fold's drain).
void check_simulated(const Case& c, std::uint64_t operand_seed,
                     Counts& counts) {
  if (c.cfg.pipelining != Pipelining::kPipelined) {
    return;
  }
  ArrayConfig cfg = c.cfg;
  cfg.overlap_fold_drain = false;
  const MappingPlan plan = systolic::lower(c.layer, cfg);
  const LatencyEstimate fold = plan.total_latency();
  if (plan.ops.empty() ||
      fold.cycles * static_cast<std::uint64_t>(cfg.pe_count()) >
          kWorkBound) {
    return;
  }
  const systolic::SimResult fast =
      systolic::SystolicArraySim(cfg, SimBackend::kFast).run_plan(plan);
  const systolic::SimResult reference =
      systolic::SystolicArraySim(cfg, SimBackend::kReference).run_plan(plan);
  for (const systolic::SimResult* sim : {&fast, &reference}) {
    EXPECT_EQ(sim->cycles, fold.cycles);
    EXPECT_EQ(sim->folds, fold.folds);
    EXPECT_EQ(sim->mac_ops, fold.mac_ops);
  }
  EXPECT_TRUE(bits_equal(fast.pe_busy, reference.pe_busy));
  ++counts.simulated;

  if (c.layer.kind == OpKind::kGroupedConv) {
    return;  // lowers, but the executor does not run it
  }
  util::Rng values(operand_seed);
  const Tensor input =
      operand(executor_input_shape(c.layer), c.zero_heavy, values);
  const Tensor weight =
      operand(executor_weight_shape(c.layer), c.zero_heavy, values);
  const Tensor expected = nn_reference(c.layer, input, weight);
  for_each_kernel_isa([&](nn::KernelIsa isa) {
    const sched::LayerExecution executed = sched::execute_layer_on_array(
        c.layer, input, weight, cfg, SimBackend::kFast, isa);
    const sched::LayerExecution stepped = sched::execute_layer_on_array(
        c.layer, input, weight, cfg, SimBackend::kReference, isa);
    EXPECT_TRUE(bits_equal(executed.output, stepped.output));
    EXPECT_EQ(executed.cycles, stepped.cycles);
    EXPECT_EQ(executed.folds, stepped.folds);
    EXPECT_EQ(executed.mac_ops, stepped.mac_ops);
    EXPECT_EQ(executed.cycles, fold.cycles);
    EXPECT_EQ(executed.folds, fold.folds);
    EXPECT_EQ(executed.mac_ops, fold.mac_ops);
    EXPECT_TRUE(tensor::allclose(executed.output, expected, 1e-3F, 1e-4F))
        << "max diff " << tensor::max_abs_diff(executed.output, expected);
    ++counts.executed[isa];
  });
}

TEST(Differential, OneGeneratorOneOracleChain) {
  util::Rng rng(kSeed);
  Counts counts;
  std::set<OpKind> kinds;
  std::set<int> combinations;
  for (int index = 0; index < kCases; ++index) {
    const Case c = draw_case(rng);
    SCOPED_TRACE("case " + std::to_string(index) + ": " + describe(c));
    kinds.insert(c.layer.kind);
    combinations.insert(combination(c.cfg));
    const MappingPlan plan = systolic::lower(c.layer, c.cfg);
    const MappingPlan batched = systolic::lower(c.layer, c.cfg, c.batch);
    check_closed_forms(c, plan, batched, counts);
    check_fold_walk(plan, c.cfg);
    check_fold_walk(batched, c.cfg);
    check_trace(c, plan, counts);
    check_simulated(c, kSeed + 1 + static_cast<std::uint64_t>(index),
                    counts);
  }
  std::printf(
      "differential: %d cases; %d closed-form, %d traced, %d simulated, "
      "%d batch-bound",
      kCases, counts.closed_forms, counts.traced, counts.simulated,
      counts.batch_bounds);
  for (const auto& [isa, executed] : counts.executed) {
    std::printf(", %d executed (%s)", executed, nn::kernel_isa_name(isa));
  }
  std::printf("\n");

  // The generator reached every kind and every switch combination, and
  // each link ran on at least its budgeted number of cases.
  EXPECT_EQ(kinds.size(), std::size(kOnArrayKinds) + std::size(kGlueKinds));
  EXPECT_EQ(combinations.size(), 108u);
  EXPECT_GE(counts.closed_forms, 20736);
  EXPECT_GE(counts.traced, 2000);
  EXPECT_GE(counts.simulated, 2000);
  EXPECT_GE(counts.batch_bounds, 500);
  EXPECT_FALSE(counts.executed.empty());
  for (const auto& [isa, executed] : counts.executed) {
    EXPECT_GE(executed, 2000) << nn::kernel_isa_name(isa);
  }
}

}  // namespace
}  // namespace fuse::test
