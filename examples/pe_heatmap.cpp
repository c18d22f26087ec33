// pe_heatmap: per-PE busy-cycle heatmaps from the cycle-level simulator —
// the paper's Fig. 2(c) vs Fig. 7 contrast, rendered from an actual run.
// A depthwise channel's im2col matmul lights up ONE column of the array;
// the same work as FuSeConv 1-D convolutions on the broadcast dataflow
// lights up the whole grid.
//
// Usage: pe_heatmap [--size=16] [--channels=16] [--hw=16]
//                   [--sim-backend=fast|reference]
#include <cstdio>

#include "bench_common.hpp"
#include "systolic/sim.hpp"
#include "tensor/im2col.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_int("size", 16, "systolic array size (SxS)");
  flags.add_int("channels", 16, "depthwise channels");
  flags.add_int("hw", 16, "square feature-map size");
  bench::add_sim_flags(flags);
  flags.parse(argc, argv);
  const systolic::SimBackend backend = bench::sim_backend_flag(flags);

  const std::int64_t size = flags.get_int("size");
  const std::int64_t channels = flags.get_int("channels");
  const std::int64_t hw = flags.get_int("hw");
  const std::int64_t k = 3;

  util::Rng rng(3);
  systolic::SystolicArraySim sim(systolic::square_array(size), backend);

  // Depthwise: per-channel [positions, K^2] x [K^2, 1] matmuls. All
  // channels accumulate into one heatmap.
  tensor::Tensor plane(tensor::Shape{hw, hw});
  plane.fill_uniform(rng, -1.0F, 1.0F);
  const tensor::Tensor patches =
      tensor::im2col_plane(plane, k, k, 1, 1, 1, 1);
  tensor::Tensor filter(tensor::Shape{k * k, 1});
  filter.fill_uniform(rng, -1.0F, 1.0F);
  tensor::Tensor dw_busy(tensor::Shape{size, size});
  std::uint64_t dw_cycles = 0;
  for (std::int64_t c = 0; c < channels; ++c) {
    const systolic::SimResult r = sim.matmul(patches, filter);
    dw_cycles += r.cycles;
    for (std::int64_t i = 0; i < dw_busy.num_elements(); ++i) {
      dw_busy[i] += r.pe_busy[i];
    }
  }

  // FuSeConv: the same channels as 1-D row convolutions on the broadcast
  // dataflow (one line per channel-row, padded for 'same' output).
  tensor::Tensor lines(tensor::Shape{channels * hw, hw + 2});
  lines.fill_uniform(rng, -1.0F, 1.0F);
  tensor::Tensor kernels(tensor::Shape{channels * hw, k});
  kernels.fill_uniform(rng, -1.0F, 1.0F);
  const systolic::SimResult fuse = sim.conv1d_broadcast(lines, kernels);

  std::printf(
      "Per-PE busy cycles on a %lldx%lld array ('.'=idle, 1-9 scaled to "
      "peak)\n\n",
      static_cast<long long>(size), static_cast<long long>(size));
  std::printf("depthwise %lld ch %lldx%lld K=%lld (im2col, single column "
              "per channel) — %llu cycles:\n%s\n",
              static_cast<long long>(channels), static_cast<long long>(hw),
              static_cast<long long>(hw), static_cast<long long>(k),
              static_cast<unsigned long long>(dw_cycles),
              systolic::render_pe_heatmap(dw_busy).c_str());
  std::printf("FuSeConv row branch, same channels (broadcast dataflow) — "
              "%llu cycles:\n%s\n",
              static_cast<unsigned long long>(fuse.cycles),
              systolic::render_pe_heatmap(fuse.pe_busy).c_str());
  std::printf("speedup (measured on the PE grid): %.1fx\n",
              static_cast<double>(dw_cycles) /
                  static_cast<double>(fuse.cycles));
  return 0;
}
