// Randomized cross-checking properties (deterministic seeds): many random
// geometries pushed through pairs of independent implementations that must
// agree. These catch the class of bugs single hand-picked shapes miss —
// edge folds, ragged tiles, stride/pad interactions.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/fuseconv.hpp"
#include "nets/serialize.hpp"
#include "nn/ops.hpp"
#include "sched/eval_fast.hpp"
#include "sched/execute.hpp"
#include "sched/latency.hpp"
#include "systolic/cycle_model.hpp"
#include "systolic/sim.hpp"
#include "tensor/half.hpp"
#include "util/rng.hpp"

namespace fuse {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::allclose;

Tensor random_tensor(Shape shape, util::Rng& rng) {
  Tensor t(std::move(shape));
  t.fill_uniform(rng, -1.0F, 1.0F);
  return t;
}

TEST(Property, ConvEqualsIm2colLoweringOnRandomGeometries) {
  util::Rng rng(1001);
  for (int trial = 0; trial < 20; ++trial) {
    const std::int64_t in_c = 1 + static_cast<std::int64_t>(rng.uniform_index(4));
    const std::int64_t out_c = 1 + static_cast<std::int64_t>(rng.uniform_index(5));
    const std::int64_t k = 1 + 2 * static_cast<std::int64_t>(rng.uniform_index(3));
    const std::int64_t stride = 1 + static_cast<std::int64_t>(rng.uniform_index(3));
    const std::int64_t pad = static_cast<std::int64_t>(rng.uniform_index(3));
    const std::int64_t hw = k + static_cast<std::int64_t>(rng.uniform_index(8));

    const Tensor input = random_tensor(Shape{1, in_c, hw, hw}, rng);
    const Tensor weight = random_tensor(Shape{out_c, in_c, k, k}, rng);
    nn::Conv2dParams p;
    p.stride_h = stride;
    p.stride_w = stride;
    p.pad_h = pad;
    p.pad_w = pad;
    const Tensor direct = nn::conv2d(input, weight, nullptr, p);
    const Tensor lowered = nn::conv2d_im2col(input, weight, nullptr, p);
    EXPECT_TRUE(allclose(lowered, direct, 1e-3F, 1e-4F))
        << "trial " << trial << ": c=" << in_c << "->" << out_c
        << " k=" << k << " s=" << stride << " p=" << pad << " hw=" << hw;
  }
}

TEST(Property, SimMatchesAnalyticOnRandomShapesAllDataflows) {
  util::Rng rng(1002);
  for (int trial = 0; trial < 15; ++trial) {
    const std::int64_t m = 1 + static_cast<std::int64_t>(rng.uniform_index(20));
    const std::int64_t t = 1 + static_cast<std::int64_t>(rng.uniform_index(15));
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.uniform_index(20));
    const std::int64_t size = 2 + static_cast<std::int64_t>(rng.uniform_index(7));
    const Tensor a = random_tensor(Shape{m, t}, rng);
    const Tensor b = random_tensor(Shape{t, n}, rng);
    const Tensor expected = nn::matmul(a, b);
    for (systolic::Dataflow df :
         {systolic::Dataflow::kOutputStationary,
          systolic::Dataflow::kWeightStationary,
          systolic::Dataflow::kInputStationary}) {
      systolic::ArrayConfig cfg = systolic::square_array(size);
      cfg.dataflow = df;
      cfg.overlap_fold_drain = false;
      systolic::SystolicArraySim sim(cfg);
      const systolic::SimResult result = sim.matmul(a, b);
      EXPECT_TRUE(allclose(result.output, expected, 1e-3F, 1e-4F))
          << "trial " << trial << " df=" << systolic::dataflow_name(df)
          << " m=" << m << " t=" << t << " n=" << n << " S=" << size;
      EXPECT_EQ(result.cycles,
                systolic::matmul_latency(m, t, n, cfg).cycles)
          << "trial " << trial << " df=" << systolic::dataflow_name(df);
    }
  }
}

TEST(Property, FuseStageEqualsGroupedConvPairOnRandomSpecs) {
  util::Rng rng(1003);
  for (int trial = 0; trial < 12; ++trial) {
    core::FuseConvSpec spec;
    spec.kernel = 1 + 2 * (1 + static_cast<std::int64_t>(rng.uniform_index(2)));
    spec.pad = spec.kernel / 2;
    spec.stride = 1 + static_cast<std::int64_t>(rng.uniform_index(2));
    spec.channels = 2 * (1 + static_cast<std::int64_t>(rng.uniform_index(4)));
    spec.in_h = spec.kernel + static_cast<std::int64_t>(rng.uniform_index(6));
    spec.in_w = spec.kernel + static_cast<std::int64_t>(rng.uniform_index(6));
    spec.variant = rng.uniform_index(2) == 0 ? core::FuseVariant::kFull
                                             : core::FuseVariant::kHalf;
    util::Rng weights_rng(2000 + static_cast<std::uint64_t>(trial));
    const core::FuseConvStage stage(spec, weights_rng);
    const Tensor input =
        random_tensor(Shape{1, spec.channels, spec.in_h, spec.in_w}, rng);
    const Tensor out = stage.forward(input);

    // Contract: output geometry matches the spec.
    EXPECT_EQ(out.shape(),
              (Shape{1, spec.out_channels(), spec.out_h(), spec.out_w()}))
        << "trial " << trial;

    // Row branch equals the grouped conv run independently.
    const std::int64_t branch_c = spec.branch_channels();
    const Tensor row_in =
        spec.variant == core::FuseVariant::kFull
            ? input
            : core::slice_channels(input, 0, branch_c);
    nn::Conv2dParams p;
    p.stride_h = spec.stride;
    p.stride_w = spec.stride;
    p.pad_w = spec.pad;
    p.groups = branch_c;
    const Tensor row_expected =
        nn::conv2d(row_in, stage.row_weights(), nullptr, p);
    for (std::int64_t i = 0; i < row_expected.num_elements(); ++i) {
      EXPECT_FLOAT_EQ(out[i], row_expected[i]) << "trial " << trial;
    }
  }
}

TEST(Property, LayerLatencyMacsAlwaysMatchLayerMacs) {
  // The analytic model must account exactly the layer's MAC count for
  // every latency-bearing kind, on random geometries and array sizes.
  util::Rng rng(1004);
  for (int trial = 0; trial < 25; ++trial) {
    const std::int64_t size = 4 + static_cast<std::int64_t>(rng.uniform_index(61));
    systolic::ArrayConfig cfg = systolic::square_array(size);
    cfg.strided_fuse_dense_compute = false;  // else dense > layer.macs()
    const std::int64_t c = 1 + static_cast<std::int64_t>(rng.uniform_index(32));
    const std::int64_t hw = 5 + static_cast<std::int64_t>(rng.uniform_index(28));
    const std::int64_t k = 1 + 2 * static_cast<std::int64_t>(rng.uniform_index(3));
    const std::int64_t stride = 1 + static_cast<std::int64_t>(rng.uniform_index(2));
    if (hw < k) {
      continue;
    }
    const std::vector<nn::LayerDesc> layers = {
        nn::make_conv("c", c, hw, hw, c + 3, k, stride, k / 2),
        nn::make_depthwise("dw", c, hw, hw, k, stride, k / 2),
        nn::make_pointwise("pw", c, hw, hw, 2 * c),
        nn::make_fuse_row("fr", c, hw, hw, k, stride, k / 2),
        nn::make_fuse_col("fc", c, hw, hw, k, stride, k / 2),
        nn::make_fully_connected("fcl", c * 7, c + 11),
    };
    for (const nn::LayerDesc& layer : layers) {
      EXPECT_EQ(sched::layer_latency(layer, cfg).mac_ops, layer.macs())
          << "trial " << trial << " layer " << layer.to_string()
          << " size " << size;
    }
  }
}

TEST(Property, ClosedFormEqualsPlanEqualsSimulatedCycles) {
  // Three independent implementations of "how long does this layer take"
  // must agree on random geometries: the closed-form evaluator the sweeps
  // run on, the plan-folded analytic model, and the PE-grid simulator
  // actually executing the layer (overlap_fold_drain=false — what the
  // simulator measures).
  util::Rng rng(1008);
  for (int trial = 0; trial < 8; ++trial) {
    const std::int64_t size = 4 + static_cast<std::int64_t>(rng.uniform_index(5));
    systolic::ArrayConfig cfg = systolic::square_array(size);
    cfg.overlap_fold_drain = false;
    const std::int64_t c = 1 + static_cast<std::int64_t>(rng.uniform_index(6));
    const std::int64_t k = 1 + 2 * static_cast<std::int64_t>(rng.uniform_index(3));
    const std::int64_t hw = k + 2 + static_cast<std::int64_t>(rng.uniform_index(6));
    const std::int64_t stride = 1 + static_cast<std::int64_t>(rng.uniform_index(2));
    const std::int64_t pad = k / 2;
    const std::int64_t out_c = c + 1 + static_cast<std::int64_t>(rng.uniform_index(4));

    struct Case {
      nn::LayerDesc layer;
      tensor::Shape weight_shape;
    };
    const std::vector<Case> cases = {
        {nn::make_conv("c", c, hw, hw, out_c, k, stride, pad),
         Shape{out_c, c, k, k}},
        {nn::make_depthwise("dw", c, hw, hw, k, stride, pad),
         Shape{c, 1, k, k}},
        {nn::make_pointwise("pw", c, hw, hw, out_c), Shape{out_c, c, 1, 1}},
        {nn::make_fuse_row("fr", c, hw, hw, k, stride, pad),
         Shape{c, 1, 1, k}},
        {nn::make_fuse_col("fc", c, hw, hw, k, stride, pad),
         Shape{c, 1, k, 1}},
        {nn::make_fully_connected("fcl", c * 3, out_c, /*bias=*/false),
         Shape{out_c, c * 3}},
    };
    for (const Case& cs : cases) {
      const auto plan = sched::layer_latency(cs.layer, cfg);
      const auto closed =
          sched::eval_layer_fast(cs.layer, cfg, systolic::MemoryConfig{})
              .latency;
      EXPECT_EQ(closed.cycles, plan.cycles)
          << "trial " << trial << " " << cs.layer.to_string();
      EXPECT_EQ(closed.folds, plan.folds) << cs.layer.to_string();
      EXPECT_EQ(closed.mac_ops, plan.mac_ops) << cs.layer.to_string();
      const Tensor input =
          cs.layer.kind == nn::OpKind::kFullyConnected
              ? random_tensor(Shape{1, cs.layer.in_c, 1, 1}, rng)
              : random_tensor(Shape{1, c, hw, hw}, rng);
      const Tensor weight = random_tensor(cs.weight_shape, rng);
      const auto exec =
          sched::execute_layer_on_array(cs.layer, input, weight, cfg);
      EXPECT_EQ(exec.cycles, plan.cycles)
          << "trial " << trial << " " << cs.layer.to_string() << " S="
          << size;
    }
  }
}

TEST(Property, RandomModeVectorsKeepNetworksWellFormed) {
  util::Rng rng(1005);
  for (nets::NetworkId id : nets::paper_networks()) {
    const int slots = nets::num_fuse_slots(id);
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<core::FuseMode> modes(static_cast<std::size_t>(slots));
      for (auto& mode : modes) {
        const auto r = rng.uniform_index(3);
        mode = r == 0 ? core::FuseMode::kBaseline
               : r == 1 ? core::FuseMode::kFull
                        : core::FuseMode::kHalf;
      }
      const nets::NetworkModel model = nets::build_network(id, modes);
      EXPECT_GT(model.total_macs(), 0u);
      // The classifier interface is invariant.
      EXPECT_EQ(model.layers.back().out_c, 1000);
      // Serialization round-trips the random variant exactly.
      const nets::NetworkModel parsed =
          nets::from_text(nets::to_text(model));
      EXPECT_EQ(parsed.total_macs(), model.total_macs());
      EXPECT_EQ(parsed.total_params(), model.total_params());
      // Latency is finite and positive on a small array.
      EXPECT_GT(sched::network_latency(model, systolic::square_array(16))
                    .total_cycles,
                0u);
    }
  }
}

TEST(Property, HalfQuantizationIsMonotone) {
  util::Rng rng(1006);
  // Values beyond +-65504 saturate to +-inf, which is still monotone.
  float prev_x = -std::numeric_limits<float>::infinity();
  float prev_q = -std::numeric_limits<float>::infinity();
  std::vector<float> xs;
  for (int i = 0; i < 3000; ++i) {
    xs.push_back(static_cast<float>(rng.uniform(-70000.0, 70000.0)));
  }
  std::sort(xs.begin(), xs.end());
  for (float x : xs) {
    const float q = tensor::quantize_half(x);
    EXPECT_GE(q, prev_q) << "x=" << x << " after " << prev_x;
    prev_q = q;
    prev_x = x;
  }
}

TEST(Property, BatchedLatencyNeverBeatsPerfectScaling) {
  // Processing B images can never take less than ~B/(overhead) of one
  // image minus the shared pipeline overheads: check cycles(B) >=
  // cycles(1) (sanity) and cycles(B) <= B * cycles(1) (batching never
  // hurts throughput) for random conv layers.
  util::Rng rng(1007);
  const auto cfg = systolic::square_array(32);
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t c = 1 + static_cast<std::int64_t>(rng.uniform_index(24));
    const std::int64_t hw = 7 + static_cast<std::int64_t>(rng.uniform_index(20));
    const nn::LayerDesc layer =
        nn::make_pointwise("pw", c, hw, hw, c + 5);
    const std::uint64_t one =
        systolic::lower_batched(layer, cfg, 1).total_latency().cycles;
    const std::uint64_t four =
        systolic::lower_batched(layer, cfg, 4).total_latency().cycles;
    EXPECT_GE(four, one) << "trial " << trial;
    EXPECT_LE(four, 4 * one) << "trial " << trial;
  }
}

}  // namespace
}  // namespace fuse
