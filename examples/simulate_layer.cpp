// simulate_layer: run a real FuSeConv row branch through the cycle-level
// PE-grid simulator and cross-check it against (a) the functional
// reference and (b) the analytic cycle model — the repo's verification
// triangle, on display.
//
// Usage: simulate_layer [--channels=8] [--hw=16] [--kernel=3] [--size=16]
//                       [--sim-backend=fast|reference]
//                       [--trace-json=] [--stats-json=] [--profile-json=]
#include <cstdio>

#include "bench_common.hpp"
#include "core/fuseconv.hpp"
#include "nn/ops.hpp"
#include "sched/latency.hpp"
#include "systolic/sim.hpp"
#include "tensor/tensor.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_int("channels", 8, "channels of the replaced depthwise layer");
  flags.add_int("hw", 16, "square feature-map size");
  flags.add_int("kernel", 3, "1-D kernel taps");
  flags.add_int("size", 16, "systolic array size (SxS)");
  bench::add_sim_flags(flags);
  bench::add_telemetry_flags(flags);
  flags.parse(argc, argv);
  const systolic::SimBackend backend = bench::sim_backend_flag(flags);
  // Silent: writes --trace-json/--stats-json/--profile-json on exit
  // without touching stdout.
  bench::TelemetryScope telemetry(flags);

  const std::int64_t channels = flags.get_int("channels");
  const std::int64_t hw = flags.get_int("hw");
  const std::int64_t kernel = flags.get_int("kernel");

  core::FuseConvSpec spec;
  spec.channels = channels;
  spec.in_h = hw;
  spec.in_w = hw;
  spec.kernel = kernel;
  spec.stride = 1;
  spec.pad = kernel / 2;
  spec.variant = core::FuseVariant::kFull;
  util::Rng rng(7);
  const core::FuseConvStage stage(spec, rng);

  tensor::Tensor input(tensor::Shape{1, channels, hw, hw});
  input.fill_uniform(rng, -1.0F, 1.0F);
  const tensor::Tensor reference = stage.forward(input);

  // Lay out the row branch as Fig. 6 does: one padded line per
  // (channel, row), each with its channel's 1-D kernel.
  const std::int64_t lines = channels * hw;
  const std::int64_t padded_w = hw + 2 * spec.pad;
  tensor::Tensor line_data(tensor::Shape{lines, padded_w});
  tensor::Tensor kernels(tensor::Shape{lines, kernel});
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t y = 0; y < hw; ++y) {
      const std::int64_t l = c * hw + y;
      for (std::int64_t x = 0; x < hw; ++x) {
        line_data.at(l, x + spec.pad) = input.at(0, c, y, x);
      }
      for (std::int64_t k = 0; k < kernel; ++k) {
        kernels.at(l, k) = stage.row_weights().at(c, 0, 0, k);
      }
    }
  }

  auto cfg = systolic::square_array(flags.get_int("size"));
  cfg.overlap_fold_drain = false;  // what the cycle-level sim measures
  systolic::SystolicArraySim sim(cfg, backend);
  const systolic::SimResult result =
      sim.conv1d_broadcast(line_data, kernels);

  // (a) functional agreement with the reference forward pass.
  float max_diff = 0.0F;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t y = 0; y < hw; ++y) {
      for (std::int64_t x = 0; x < hw; ++x) {
        const float simulated = result.output.at(c * hw + y, x);
        const float expected = reference.at(0, c, y, x);
        max_diff = std::max(max_diff, std::abs(simulated - expected));
      }
    }
  }

  // (b) temporal agreement with the analytic model.
  const auto lowered =
      core::lower_fuse_stage("fuse", spec, nn::Activation::kNone);
  const auto analytic = sched::layer_latency(lowered[0], cfg);

  std::printf(
      "FuSeConv row branch: %lld channels x %lldx%lld, K=%lld on %s\n\n"
      "  PE-grid simulator : %llu cycles over %llu waves, %llu MACs\n"
      "  analytic model    : %llu cycles (match: %s)\n"
      "  vs reference fwd  : max |diff| = %.2e (match: %s)\n"
      "  array utilization : %.1f%%\n",
      static_cast<long long>(channels), static_cast<long long>(hw),
      static_cast<long long>(hw), static_cast<long long>(kernel),
      cfg.to_string().c_str(),
      static_cast<unsigned long long>(result.cycles),
      static_cast<unsigned long long>(result.folds),
      static_cast<unsigned long long>(result.mac_ops),
      static_cast<unsigned long long>(analytic.cycles),
      result.cycles == analytic.cycles ? "yes" : "NO",
      max_diff, max_diff < 1e-4F ? "yes" : "NO",
      100.0 * static_cast<double>(result.mac_ops) /
          (static_cast<double>(result.cycles) *
           static_cast<double>(cfg.pe_count())));
  return 0;
}
