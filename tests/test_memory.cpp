// Tests for the DRAM-traffic / roofline and energy extensions.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "hw/energy.hpp"
#include "nn/layer.hpp"
#include "sched/latency.hpp"
#include "systolic/mapping.hpp"
#include "systolic/memory.hpp"
#include "systolic/trace.hpp"
#include "util/check.hpp"

namespace fuse::systolic {
namespace {

ArrayConfig array64() { return square_array(64); }

/// The DRAM traffic of a layer's lowered plan on the 64x64 array.
TrafficEstimate traffic_of(const nn::LayerDesc& layer,
                           const MemoryConfig& mem) {
  return plan_traffic(lower(layer, array64()), array64(), mem);
}

nn::LayerDesc depthwise(std::int64_t channels, std::int64_t hw) {
  return nn::make_depthwise("dw", channels, hw, hw, 3, 1, 1);
}

// --- traffic counting ---------------------------------------------------------

TEST(MatmulTraffic, SingleFoldStreamsOperandsOnce) {
  const MemoryConfig mem;  // 2-byte operands
  const TrafficEstimate t = matmul_traffic(8, 16, 8, array64(), mem);
  EXPECT_EQ(t.input_bytes, 8ULL * 16 * 2);
  EXPECT_EQ(t.weight_bytes, 16ULL * 8 * 2);
  EXPECT_EQ(t.output_bytes, 8ULL * 8 * 2);
}

TEST(MatmulTraffic, ReStreamsPerFold) {
  const MemoryConfig mem;
  // N = 130 -> 3 column folds: A is read 3 times. M = 70 -> 2 row folds:
  // B is read twice.
  const TrafficEstimate t = matmul_traffic(70, 10, 130, array64(), mem);
  EXPECT_EQ(t.input_bytes, 70ULL * 10 * 3 * 2);
  EXPECT_EQ(t.weight_bytes, 10ULL * 130 * 2 * 2);
  EXPECT_EQ(t.output_bytes, 70ULL * 130 * 2);
}

TEST(ConvTraffic, Im2colInflatesInputReads) {
  // The lowered patch matrix carries each input value ~K^2 times.
  const MemoryConfig mem;
  const TrafficEstimate conv =
      traffic_of(nn::make_conv("conv", 32, 14, 14, 16, 3, 1, 1), mem);
  const std::uint64_t raw_input_bytes = 16ULL * 16 * 32 * 2;  // ~input map
  EXPECT_GT(conv.input_bytes, 5 * raw_input_bytes);
}

TEST(DepthwiseTraffic, ScalesWithChannels) {
  const MemoryConfig mem;
  const TrafficEstimate one = traffic_of(depthwise(1, 14), mem);
  const TrafficEstimate many = traffic_of(depthwise(32, 14), mem);
  EXPECT_EQ(many.total_bytes(), 32u * one.total_bytes());
}

TEST(FuseTraffic, NoIm2colInflation) {
  // FuSe reads each line value ~once per fold window; for one fold the
  // input traffic is line_out + k - 1 values per line — no K^2 blowup.
  const MemoryConfig mem;
  const TrafficEstimate t = fuse1d_traffic(32, 56, 3, array64(), mem);
  EXPECT_EQ(t.input_bytes, 32ULL * (56 + 3 - 1) * 2);
  EXPECT_EQ(t.weight_bytes, 32ULL * 3 * 2);
  EXPECT_EQ(t.output_bytes, 32ULL * 56 * 2);
}

TEST(FuseTraffic, LessTrafficThanDepthwiseForSameWork) {
  // 32 channels of 56x56, K=3: FuSe rows+cols move far fewer bytes than
  // the depthwise im2col lowering.
  const MemoryConfig mem;
  const TrafficEstimate dw = traffic_of(depthwise(32, 56), mem);
  TrafficEstimate fuse = fuse1d_traffic(32 * 56, 56, 3, array64(), mem);
  fuse += fuse1d_traffic(32 * 56, 56, 3, array64(), mem);  // col branch
  EXPECT_GT(dw.total_bytes(), 2 * fuse.total_bytes());
}

TEST(Traffic, MemoryCyclesScaleWithBandwidth) {
  MemoryConfig slow;
  slow.dram_bytes_per_cycle = 4.0;
  MemoryConfig fast;
  fast.dram_bytes_per_cycle = 64.0;
  const TrafficEstimate t = matmul_traffic(64, 64, 64, array64(), slow);
  EXPECT_EQ(t.memory_cycles(slow), 16u * t.memory_cycles(fast));
}

TEST(Traffic, InvalidConfigThrows) {
  MemoryConfig bad;
  bad.dram_bytes_per_cycle = 0.0;
  EXPECT_THROW(bad.validate(), util::Error);
  EXPECT_THROW(matmul_traffic(0, 1, 1, array64(), MemoryConfig{}),
               util::Error);
}


// --- fold traces ----------------------------------------------------------------

/// The fold trace of a [20, 6] x [6, 17] pointwise layer.
FoldTrace pointwise_trace(const ArrayConfig& cfg, const MemoryConfig& mem) {
  return plan_trace(lower(nn::make_pointwise("pw", 6, 4, 5, 17), cfg), cfg,
                    mem);
}

/// The fold trace of a FuSe row layer of 20 lines (4 channels x 5 rows)
/// of 14 outputs, 3 taps.
FoldTrace fuse_row_trace(const ArrayConfig& cfg, const MemoryConfig& mem) {
  return plan_trace(lower(nn::make_fuse_row("row", 4, 5, 14, 3, 1, 1), cfg),
                    cfg, mem);
}

TEST(FoldTrace, MatmulTraceMatchesAnalyticCycles) {
  const MemoryConfig mem;
  for (bool overlap : {false, true}) {
    ArrayConfig cfg = square_array(8);
    cfg.overlap_fold_drain = overlap;
    const FoldTrace trace = pointwise_trace(cfg, mem);
    EXPECT_EQ(trace.total_cycles, matmul_latency(20, 6, 17, cfg).cycles)
        << "overlap=" << overlap;
    EXPECT_EQ(trace.folds.size(),
              static_cast<std::size_t>(matmul_latency(20, 6, 17, cfg).folds));
  }
}

TEST(FoldTrace, FoldsAreContiguous) {
  // Each fold's span carries its exposed drain, so under overlap too the
  // folds tile the whole trace with no gap at the end.
  const MemoryConfig mem;
  for (bool overlap : {false, true}) {
    ArrayConfig cfg = square_array(8);
    cfg.overlap_fold_drain = overlap;
    const FoldTrace trace = pointwise_trace(cfg, mem);
    std::uint64_t cursor = 0;
    for (const FoldRecord& fold : trace.folds) {
      EXPECT_EQ(fold.start_cycle, cursor);
      EXPECT_GT(fold.end_cycle, fold.start_cycle);
      cursor = fold.end_cycle;
    }
    EXPECT_EQ(cursor, trace.total_cycles) << "overlap=" << overlap;
  }
}

TEST(FoldTrace, Fuse1dTraceMatchesAnalytic) {
  const MemoryConfig mem;
  const ArrayConfig cfg = square_array(8);
  const FoldTrace trace = fuse_row_trace(cfg, mem);
  EXPECT_EQ(trace.total_cycles, fuse1d_latency(20, 14, 3, cfg).cycles);
}

TEST(FoldTrace, DoubleBufferSizing) {
  // A full 8x8 fold with depth 6 at 2 bytes: A tile 8*6*2 = 96 B, B tile
  // 6*8*2 = 96 B, C tile 8*8*2 = 128 B -> 320 B per fold, 640 B double
  // buffered.
  const MemoryConfig mem;
  const ArrayConfig cfg = square_array(8);
  const FoldTrace trace = plan_trace(
      lower(nn::make_pointwise("pw", 6, 2, 4, 8), cfg), cfg, mem);
  EXPECT_EQ(trace.peak_fold_bytes(), 96u + 96 + 128);
  EXPECT_EQ(trace.double_buffer_bytes(), 2 * (96u + 96 + 128));
}

TEST(FoldTrace, CsvHasOneRowPerFold) {
  const MemoryConfig mem;
  const FoldTrace trace = pointwise_trace(square_array(8), mem);
  const std::string path = testing::TempDir() + "/fuse_folds.csv";
  write_fold_trace_csv(trace, path);
  std::ifstream in(path);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ++rows;
  }
  EXPECT_EQ(rows, trace.folds.size() + 1);
  std::remove(path.c_str());
}

TEST(FoldTrace, MatmulFoldsRequireOutputStationary) {
  // The traced matmul operand footprints are the output-stationary tile's.
  const MemoryConfig mem;
  for (Dataflow dataflow :
       {Dataflow::kWeightStationary, Dataflow::kInputStationary}) {
    ArrayConfig cfg = square_array(8);
    cfg.dataflow = dataflow;
    EXPECT_THROW(pointwise_trace(cfg, mem), util::Error);
    // A broadcast line's fold does not depend on the dataflow; without
    // the bus the lines serialize as matmuls and take the OS footprint.
    EXPECT_EQ(fuse_row_trace(cfg, mem).total_cycles,
              fuse1d_latency(20, 14, 3, cfg).cycles);
    cfg.broadcast_links = false;
    EXPECT_THROW(fuse_row_trace(cfg, mem), util::Error);
  }
}

}  // namespace
}  // namespace fuse::systolic

namespace fuse::sched {
namespace {

using systolic::MemoryConfig;

TEST(Roofline, ComputeBoundAtInfiniteBandwidth) {
  MemoryConfig mem;
  mem.dram_bytes_per_cycle = 1e12;
  const auto model = nets::build_network(nets::NetworkId::kMobileNetV2);
  const auto cfg = systolic::square_array(64);
  const NetworkRoofline roofline = network_roofline(model, cfg, mem);
  EXPECT_EQ(roofline.bound_cycles, roofline.compute_cycles);
  EXPECT_EQ(roofline.memory_bound_layers, 0);
}

TEST(Roofline, MemoryBoundAtTinyBandwidth) {
  MemoryConfig mem;
  mem.dram_bytes_per_cycle = 0.25;
  const auto model = nets::build_network(nets::NetworkId::kMobileNetV2);
  const auto cfg = systolic::square_array(64);
  const NetworkRoofline roofline = network_roofline(model, cfg, mem);
  EXPECT_GT(roofline.memory_cycles, roofline.compute_cycles);
  EXPECT_GT(roofline.memory_bound_layers, 30);
}

TEST(Roofline, BoundIsAtLeastBothComponentsPerLayer) {
  MemoryConfig mem;  // default 16 B/cycle: mixed regime
  const auto model = nets::build_network(nets::NetworkId::kMnasNetB1);
  const auto cfg = systolic::square_array(64);
  const NetworkRoofline roofline = network_roofline(model, cfg, mem);
  EXPECT_GE(roofline.bound_cycles, roofline.compute_cycles);
  EXPECT_GE(roofline.bound_cycles, roofline.memory_cycles);
  // Summed per-layer max is at most compute + memory.
  EXPECT_LE(roofline.bound_cycles,
            roofline.compute_cycles + roofline.memory_cycles);
}

TEST(Roofline, SpeedupConvergesToComputeOnlyAtHighBandwidth) {
  const auto cfg = systolic::square_array(64);
  MemoryConfig generous;
  generous.dram_bytes_per_cycle = 1e12;
  const double roofline = roofline_speedup(
      nets::NetworkId::kMobileNetV1, core::NetworkVariant::kFuseHalf, cfg,
      generous);
  const double compute_only = speedup_vs_baseline(
      nets::NetworkId::kMobileNetV1, core::NetworkVariant::kFuseHalf, cfg);
  EXPECT_NEAR(roofline, compute_only, 1e-6);
}

TEST(Roofline, SpeedupShrinksButSurvivesAtLowBandwidth) {
  const auto cfg = systolic::square_array(64);
  MemoryConfig scarce;
  scarce.dram_bytes_per_cycle = 1.0;
  const double speedup = roofline_speedup(
      nets::NetworkId::kMobileNetV2, core::NetworkVariant::kFuseHalf, cfg,
      scarce);
  EXPECT_GT(speedup, 1.2);  // im2col traffic keeps the baseline behind
  EXPECT_LT(speedup, 4.0);  // but the compute win is mostly gone
}

// --- energy ---------------------------------------------------------------------

TEST(Energy, DecompositionAddsUp) {
  const hw::EnergyModel model;
  const hw::EnergyReport report =
      hw::operator_energy(1000, 500, 64 * 64, 2048, model);
  EXPECT_NEAR(report.total_nj(),
              report.mac_nj + report.idle_nj + report.sram_nj +
                  report.dram_nj,
              1e-9);
  EXPECT_NEAR(report.mac_nj, 1000 * model.mac_pj * 1e-3, 1e-9);
  EXPECT_NEAR(report.dram_nj, 2048 * model.dram_pj_per_byte * 1e-3, 1e-9);
}

TEST(Energy, FuseVariantCutsIdleEnergy) {
  // The baseline's under-utilized array burns idle energy; FuSe's fewer
  // busy cycles cut it by several times.
  const auto cfg = systolic::square_array(64);
  const MemoryConfig mem;
  const hw::EnergyModel energy;
  const auto base = nets::build_network(nets::NetworkId::kMobileNetV2);
  const auto half = nets::build_network(
      nets::NetworkId::kMobileNetV2,
      core::uniform_modes(17, core::FuseMode::kHalf));
  const hw::EnergyReport base_report =
      network_energy(base, cfg, mem, energy);
  const hw::EnergyReport half_report =
      network_energy(half, cfg, mem, energy);
  EXPECT_GT(base_report.idle_nj, 5.0 * half_report.idle_nj);
  EXPECT_LT(half_report.total_nj(), base_report.total_nj());
}

TEST(Energy, InvalidModelThrows) {
  hw::EnergyModel bad;
  bad.mac_pj = 0.0;
  EXPECT_THROW(bad.validate(), util::Error);
}

}  // namespace
}  // namespace fuse::sched
