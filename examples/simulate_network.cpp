// simulate_network: an entire small CNN inferred ON the simulated systolic
// array — every conv/FC layer executes on the PE grid (via
// sched::execute_layer_on_array) with real weights; activations and
// pooling run host-side, as in a real accelerator. Runs both the
// depthwise-separable network and its FuSe-Half drop-in twin (sharing the
// pointwise/FC weights), checks the logits against the pure fuse::nn
// forward pass, and reports measured end-to-end cycles.
//
// Usage: simulate_network [--size=16] [--hw=16] [--channels=8]
//                         [--sim-backend=fast|reference]
//                         [--trace-json=] [--stats-json=] [--profile-json=]
#include <cstdio>

#include "bench_common.hpp"
#include "core/fuseconv.hpp"
#include "nn/ops.hpp"
#include "sched/execute.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace fuse;
using tensor::Shape;
using tensor::Tensor;

namespace {

Tensor relu(const Tensor& t) {
  return nn::apply_activation(t, nn::Activation::kRelu);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_int("size", 16, "systolic array size (SxS)");
  flags.add_int("hw", 16, "input feature-map size");
  flags.add_int("channels", 8, "stem channels");
  bench::add_sim_flags(flags);
  bench::add_telemetry_flags(flags);
  flags.parse(argc, argv);
  const systolic::SimBackend backend = bench::sim_backend_flag(flags);
  // Silent: writes --trace-json/--stats-json/--profile-json on exit
  // without touching stdout.
  bench::TelemetryScope telemetry(flags);

  auto cfg = systolic::square_array(flags.get_int("size"));
  cfg.overlap_fold_drain = false;  // what the PE-grid simulator measures
  const std::int64_t hw = flags.get_int("hw");
  const std::int64_t c = flags.get_int("channels");
  const std::int64_t classes = 4;

  util::Rng rng(5);
  Tensor input(Shape{1, 3, hw, hw});
  input.fill_uniform(rng, -1.0F, 1.0F);

  // Shared weights.
  Tensor stem_w(Shape{c, 3, 3, 3});
  stem_w.fill_uniform(rng, -0.4F, 0.4F);
  Tensor dw_w(Shape{c, 1, 3, 3});
  dw_w.fill_uniform(rng, -0.4F, 0.4F);
  Tensor pw_w(Shape{2 * c, c, 1, 1});
  pw_w.fill_uniform(rng, -0.4F, 0.4F);
  Tensor fc_w(Shape{classes, 2 * c});
  fc_w.fill_uniform(rng, -0.4F, 0.4F);
  core::FuseConvSpec spec;
  spec.channels = c;
  spec.in_h = hw;
  spec.in_w = hw;
  spec.kernel = 3;
  spec.stride = 1;
  spec.pad = 1;
  spec.variant = core::FuseVariant::kHalf;
  const core::FuseConvStage fuse_stage(spec, rng);

  const nn::LayerDesc stem = nn::make_conv("stem", 3, hw, hw, c, 3, 1, 1);
  const nn::LayerDesc dw = nn::make_depthwise("dw", c, hw, hw, 3, 1, 1);
  const nn::LayerDesc pw = nn::make_pointwise("pw", c, hw, hw, 2 * c);
  const nn::LayerDesc fc =
      nn::make_fully_connected("fc", 2 * c, classes, /*bias=*/false);
  const nn::LayerDesc fuse_row =
      nn::make_fuse_row("fuse/row", c / 2, hw, hw, 3, 1, 1);
  const nn::LayerDesc fuse_col =
      nn::make_fuse_col("fuse/col", c / 2, hw, hw, 3, 1, 1);

  const auto run_network = [&](bool use_fuse) {
    std::uint64_t cycles = 0;
    auto step = [&](const nn::LayerDesc& layer, const Tensor& in,
                    const Tensor& w) {
      const sched::LayerExecution exec =
          sched::execute_layer_on_array(layer, in, w, cfg, backend);
      cycles += exec.cycles;
      return exec.output;
    };
    Tensor x = relu(step(stem, input, stem_w));
    if (use_fuse) {
      const Tensor row_out = step(
          fuse_row, core::slice_channels(x, 0, c / 2),
          fuse_stage.row_weights());
      const Tensor col_out = step(
          fuse_col, core::slice_channels(x, c / 2, c / 2),
          fuse_stage.col_weights());
      x = relu(nn::concat_channels(row_out, col_out));
    } else {
      x = relu(step(dw, x, dw_w));
    }
    x = relu(step(pw, x, pw_w));
    x = nn::global_avg_pool(x);
    x = step(fc, x, fc_w);
    return std::pair<Tensor, std::uint64_t>(x, cycles);
  };

  const auto [base_logits, base_cycles] = run_network(false);
  const auto [fuse_logits, fuse_cycles] = run_network(true);

  // Reference forward with pure fuse::nn operators (baseline network).
  nn::Conv2dParams stem_p;
  stem_p.pad_h = 1;
  stem_p.pad_w = 1;
  nn::Conv2dParams dw_p = stem_p;
  dw_p.groups = c;
  Tensor ref = relu(nn::conv2d(input, stem_w, nullptr, stem_p));
  ref = relu(nn::conv2d(ref, dw_w, nullptr, dw_p));
  ref = relu(nn::conv2d(ref, pw_w, nullptr, {}));
  ref = nn::global_avg_pool(ref);
  const Tensor ref_logits =
      nn::linear(ref.reshaped(Shape{1, 2 * c}), fc_w, nullptr);

  float max_diff = 0.0F;
  for (std::int64_t i = 0; i < classes; ++i) {
    max_diff = std::max(max_diff, std::abs(base_logits[i] - ref_logits[i]));
  }

  std::printf(
      "whole-network inference on the simulated %s array:\n\n"
      "  baseline (conv-dw-pw-fc) : %llu cycles, logits match host "
      "reference (max |diff| %.2e)\n"
      "  FuSe-Half twin           : %llu cycles\n"
      "  measured speedup         : %.2fx\n\n"
      "every MAC of both networks was executed by the PE grid, cycle by "
      "cycle.\n",
      cfg.to_string().c_str(),
      static_cast<unsigned long long>(base_cycles), max_diff,
      static_cast<unsigned long long>(fuse_cycles),
      static_cast<double>(base_cycles) / static_cast<double>(fuse_cycles));
  (void)fuse_logits;
  return max_diff < 1e-3F ? 0 : 1;
}
