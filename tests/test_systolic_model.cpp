// Tests for the analytic cycle model (SCALE-Sim methodology).
#include <gtest/gtest.h>

#include "systolic/config.hpp"
#include "systolic/cycle_model.hpp"
#include "util/check.hpp"

namespace fuse::systolic {
namespace {

ArrayConfig array_no_overlap(std::int64_t size) {
  ArrayConfig cfg = square_array(size);
  cfg.overlap_fold_drain = false;
  return cfg;
}

// --- config -----------------------------------------------------------------

TEST(ArrayConfig, ValidatesDimensions) {
  ArrayConfig cfg;
  cfg.rows = 0;
  EXPECT_THROW(cfg.validate(), util::Error);
  cfg.rows = 8;
  cfg.freq_mhz = -1.0;
  EXPECT_THROW(cfg.validate(), util::Error);
}

TEST(ArrayConfig, ToStringMentionsBroadcast) {
  EXPECT_EQ(square_array(32, true).to_string(), "32x32 (+broadcast)");
  EXPECT_EQ(square_array(32, false).to_string(), "32x32");
}

// --- fold_cycles ------------------------------------------------------------

TEST(FoldCycles, DocumentedFormula) {
  // (R-1) + (Cc-1) + T + R
  EXPECT_EQ(fold_cycles(1, 1, 1), 2u);
  EXPECT_EQ(fold_cycles(8, 8, 16), 7u + 7 + 16 + 8);
  EXPECT_EQ(fold_cycles(64, 64, 9), 63u + 63 + 9 + 64);
}

TEST(FoldCycles, InvalidArgsThrow) {
  EXPECT_THROW(fold_cycles(0, 1, 1), util::Error);
  EXPECT_THROW(fold_cycles(1, 1, 0), util::Error);
}

// --- matmul_latency ---------------------------------------------------------

TEST(MatmulLatency, SingleFoldExactCycles) {
  const ArrayConfig cfg = array_no_overlap(8);
  const LatencyEstimate est = matmul_latency(8, 16, 8, cfg);
  EXPECT_EQ(est.folds, 1u);
  EXPECT_EQ(est.cycles, fold_cycles(8, 8, 16));
  EXPECT_EQ(est.mac_ops, 8ULL * 8 * 16);
}

TEST(MatmulLatency, TilesOverBothDimensions) {
  const ArrayConfig cfg = array_no_overlap(8);
  const LatencyEstimate est = matmul_latency(20, 4, 17, cfg);
  // ceil(20/8)=3 row folds, ceil(17/8)=3 col folds.
  EXPECT_EQ(est.folds, 9u);
  EXPECT_EQ(est.mac_ops, 20ULL * 17 * 4);
}

TEST(MatmulLatency, EdgeFoldsUseShorterSkew) {
  const ArrayConfig cfg = array_no_overlap(8);
  // 9 rows: one full 8-row fold + one 1-row fold (shorter skew and drain).
  const LatencyEstimate est = matmul_latency(9, 4, 8, cfg);
  EXPECT_EQ(est.cycles, fold_cycles(8, 8, 4) + fold_cycles(1, 8, 4));
}

TEST(MatmulLatency, OverlapSavesIntermediateDrains) {
  ArrayConfig no = array_no_overlap(8);
  ArrayConfig yes = square_array(8);
  yes.overlap_fold_drain = true;
  const LatencyEstimate a = matmul_latency(32, 8, 8, no);   // 4 folds
  const LatencyEstimate b = matmul_latency(32, 8, 8, yes);
  EXPECT_EQ(a.folds, b.folds);
  EXPECT_EQ(a.mac_ops, b.mac_ops);
  // Overlap saves (folds - 1) * drain = 3 * 8 cycles.
  EXPECT_EQ(a.cycles - b.cycles, 3u * 8);
}

TEST(MatmulLatency, UtilizationApproachesOneForDeepReductions) {
  const ArrayConfig cfg = array_no_overlap(16);
  const LatencyEstimate est = matmul_latency(16, 100000, 16, cfg);
  EXPECT_GT(est.utilization(), 0.99);
  EXPECT_LE(est.utilization(), 1.0);
}

TEST(MatmulLatency, UtilizationLowForSingleColumn) {
  const ArrayConfig cfg = array_no_overlap(64);
  const LatencyEstimate est = matmul_latency(64, 9, 1, cfg);
  EXPECT_LT(est.utilization(), 0.01);  // the depthwise pathology
}

TEST(MatmulLatency, InvalidDimsThrow) {
  EXPECT_THROW(matmul_latency(0, 1, 1, square_array(8)), util::Error);
}

// --- conv mappings ----------------------------------------------------------

TEST(ConvIm2col, MatchesEquivalentMatmul) {
  const ArrayConfig cfg = array_no_overlap(16);
  const LatencyEstimate conv =
      conv_im2col_latency(14, 14, 3, 3, 32, 64, cfg);
  const LatencyEstimate mm = matmul_latency(14 * 14, 3 * 3 * 32, 64, cfg);
  EXPECT_EQ(conv.cycles, mm.cycles);
  EXPECT_EQ(conv.mac_ops, mm.mac_ops);
}

TEST(DepthwiseIm2col, SerializesChannels) {
  const ArrayConfig cfg = array_no_overlap(16);
  const LatencyEstimate one =
      depthwise_im2col_latency(1, 14, 14, 3, cfg);
  const LatencyEstimate many =
      depthwise_im2col_latency(32, 14, 14, 3, cfg);
  EXPECT_EQ(many.cycles, 32u * one.cycles);
  EXPECT_EQ(many.mac_ops, 32u * one.mac_ops);
}

TEST(DepthwiseIm2col, WastesTheArray) {
  // The whole point of §III: single-column mapping -> utilization bounded
  // by 1/cols.
  const ArrayConfig cfg = array_no_overlap(64);
  const LatencyEstimate est =
      depthwise_im2col_latency(32, 56, 56, 3, cfg);
  EXPECT_LT(est.utilization(), 1.0 / 64);
}

TEST(ChannelwiseConv, TapsMultiplyCycles) {
  const ArrayConfig cfg = array_no_overlap(16);
  const LatencyEstimate one_tap =
      conv_channelwise_latency(14, 14, 1, 1, 32, 64, cfg);
  const LatencyEstimate nine_taps =
      conv_channelwise_latency(14, 14, 3, 3, 32, 64, cfg);
  EXPECT_EQ(nine_taps.cycles, 9u * one_tap.cycles);
}

TEST(ChannelwiseConv, SameMacsAsIm2col) {
  const ArrayConfig cfg = array_no_overlap(16);
  EXPECT_EQ(conv_channelwise_latency(14, 14, 3, 3, 32, 64, cfg).mac_ops,
            conv_im2col_latency(14, 14, 3, 3, 32, 64, cfg).mac_ops);
}

// --- fuse1d -----------------------------------------------------------------

TEST(Fuse1d, SingleWaveFormula) {
  const ArrayConfig cfg = array_no_overlap(8);
  // 8 lines x 8 outputs x 3 taps: (8-1) + 3 + 8.
  const LatencyEstimate est = fuse1d_latency(8, 8, 3, cfg);
  EXPECT_EQ(est.folds, 1u);
  EXPECT_EQ(est.cycles, 7u + 3 + 8);
  EXPECT_EQ(est.mac_ops, 8ULL * 8 * 3);
}

TEST(Fuse1d, RequiresBroadcastLinks) {
  const ArrayConfig cfg = square_array(8, /*broadcast=*/false);
  EXPECT_THROW(fuse1d_latency(8, 8, 3, cfg), util::Error);
}

TEST(Fuse1d, PacksManyLinesAcrossRows) {
  const ArrayConfig cfg = array_no_overlap(8);
  // 16 lines on an 8-row array: two waves.
  const LatencyEstimate est = fuse1d_latency(16, 8, 3, cfg);
  EXPECT_EQ(est.folds, 2u);
  EXPECT_EQ(est.cycles, 2u * (7 + 3 + 8));
}

TEST(Fuse1d, HighUtilizationUnlikeDepthwise) {
  // Same work shape as DepthwiseIm2col.WastesTheArray: 32 channels of
  // 56x56, K=3. FuSe rows: 32*56 lines of 56 outputs.
  const ArrayConfig cfg = array_no_overlap(64);
  const LatencyEstimate fuse = fuse1d_latency(32 * 56, 56, 3, cfg);
  const LatencyEstimate dw = depthwise_im2col_latency(32, 56, 56, 3, cfg);
  EXPECT_GT(fuse.utilization(), 10 * dw.utilization());
  EXPECT_LT(fuse.cycles, dw.cycles / 5);
}

TEST(Fuse1d, NoBroadcastFallbackIsSingleColumn) {
  const ArrayConfig cfg = array_no_overlap(64);
  const LatencyEstimate with = fuse1d_latency(64, 56, 3, cfg);
  const LatencyEstimate without =
      fuse1d_no_broadcast_latency(64, 56, 3, cfg);
  // Without the links every line serializes onto one column: much slower.
  EXPECT_GT(without.cycles, 10 * with.cycles);
  EXPECT_EQ(with.mac_ops, without.mac_ops);
}

TEST(Fuse1d, OverlapSavesDrains) {
  ArrayConfig no = array_no_overlap(8);
  ArrayConfig yes = square_array(8);
  const LatencyEstimate a = fuse1d_latency(32, 8, 3, no);  // 4 waves
  const LatencyEstimate b = fuse1d_latency(32, 8, 3, yes);
  EXPECT_EQ(a.cycles - b.cycles, 3u * 8);
}

// --- fully connected --------------------------------------------------------

TEST(FullyConnected, UsesOneRow) {
  const ArrayConfig cfg = array_no_overlap(64);
  const LatencyEstimate est = fully_connected_latency(1024, 1000, cfg);
  // M=1: 16 column folds, each (1-1) + (cols-1) + 1024 + 1.
  EXPECT_EQ(est.folds, 16u);
  EXPECT_EQ(est.mac_ops, 1024ULL * 1000);
  EXPECT_LT(est.utilization(), 1.0 / 32);
}

// --- LatencyEstimate accumulation -------------------------------------------

TEST(LatencyEstimate, AccumulatesAcrossOperators) {
  const ArrayConfig cfg = array_no_overlap(8);
  LatencyEstimate total = matmul_latency(8, 4, 8, cfg);
  const LatencyEstimate second = matmul_latency(8, 6, 8, cfg);
  total += second;
  EXPECT_EQ(total.folds, 2u);
  EXPECT_EQ(total.cycles,
            fold_cycles(8, 8, 4) + fold_cycles(8, 8, 6));
}

TEST(LatencyEstimate, MixingArraySizesThrows) {
  LatencyEstimate a = matmul_latency(4, 4, 4, square_array(8));
  const LatencyEstimate b = matmul_latency(4, 4, 4, square_array(16));
  EXPECT_THROW(a += b, util::Error);
}

// --- property sweeps --------------------------------------------------------

class MatmulLatencyProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(MatmulLatencyProperty, MacOpsIndependentOfArraySize) {
  const auto [m, t, n, size] = GetParam();
  const LatencyEstimate est =
      matmul_latency(m, t, n, array_no_overlap(size));
  EXPECT_EQ(est.mac_ops, static_cast<std::uint64_t>(m) * t * n);
}

TEST_P(MatmulLatencyProperty, BiggerArraysNeverSlower) {
  const auto [m, t, n, size] = GetParam();
  const LatencyEstimate small =
      matmul_latency(m, t, n, array_no_overlap(size));
  const LatencyEstimate big =
      matmul_latency(m, t, n, array_no_overlap(2 * size));
  EXPECT_LE(big.cycles, small.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatmulLatencyProperty,
    ::testing::Combine(::testing::Values(1, 7, 64, 100),
                       ::testing::Values(1, 9, 64),
                       ::testing::Values(1, 8, 33),
                       ::testing::Values(4, 8, 32)));

}  // namespace
}  // namespace fuse::systolic

// NOTE: appended suite — weight/input-stationary dataflow models.
namespace fuse::systolic {
namespace {

ArrayConfig dataflow_array(Dataflow df, std::int64_t size, bool overlap) {
  ArrayConfig cfg = square_array(size);
  cfg.dataflow = df;
  cfg.overlap_fold_drain = overlap;
  return cfg;
}

TEST(DataflowNames, AllDistinct) {
  EXPECT_EQ(dataflow_name(Dataflow::kOutputStationary), "OS");
  EXPECT_EQ(dataflow_name(Dataflow::kWeightStationary), "WS");
  EXPECT_EQ(dataflow_name(Dataflow::kInputStationary), "IS");
}

TEST(WeightStationary, SingleFoldFormula) {
  // One fold: T_u preload + (M + T_u + N_u - 2) streaming.
  const ArrayConfig cfg =
      dataflow_array(Dataflow::kWeightStationary, 8, false);
  const LatencyEstimate est = matmul_latency(10, 8, 8, cfg);
  EXPECT_EQ(est.folds, 1u);
  EXPECT_EQ(est.cycles, 8u + (10 + 8 + 8 - 2));
  EXPECT_EQ(est.mac_ops, 10ULL * 8 * 8);
}

TEST(WeightStationary, FoldsOverReductionAndColumns) {
  const ArrayConfig cfg =
      dataflow_array(Dataflow::kWeightStationary, 8, false);
  // T=20 -> 3 row folds; N=17 -> 3 col folds; M unlimited (streams).
  const LatencyEstimate est = matmul_latency(5, 20, 17, cfg);
  EXPECT_EQ(est.folds, 9u);
  EXPECT_EQ(est.mac_ops, 5ULL * 20 * 17);
}

TEST(WeightStationary, OverlapHidesPreloadsExceptFirst) {
  const ArrayConfig no =
      dataflow_array(Dataflow::kWeightStationary, 8, false);
  const ArrayConfig yes =
      dataflow_array(Dataflow::kWeightStationary, 8, true);
  // 4 folds of full 8x8 tiles: overlap saves 3 preloads of 8 cycles.
  const LatencyEstimate a = matmul_latency(16, 16, 16, no);
  const LatencyEstimate b = matmul_latency(16, 16, 16, yes);
  EXPECT_EQ(a.cycles - b.cycles, 3u * 8);
}

TEST(InputStationary, SingleFoldFormula) {
  const ArrayConfig cfg =
      dataflow_array(Dataflow::kInputStationary, 8, false);
  const LatencyEstimate est = matmul_latency(8, 8, 10, cfg);
  EXPECT_EQ(est.folds, 1u);
  EXPECT_EQ(est.cycles, 8u + (10 + 8 + 8 - 2));
  EXPECT_EQ(est.mac_ops, 8ULL * 8 * 10);
}

TEST(InputStationary, MirrorsWeightStationaryWhenTilesTranspose) {
  // IS pins the [M, T] tile and streams N; WS on the transposed problem
  // (N, T, M) pins [T, M]. The per-fold pipeline terms transpose exactly;
  // the preload term is one cycle per *array row* of the pinned tile, so
  // the costs coincide whenever M == T (tiles are square under
  // transposition). For M != T the streaming cycles still match and only
  // preload differs.
  const ArrayConfig is_cfg =
      dataflow_array(Dataflow::kInputStationary, 8, false);
  const ArrayConfig ws_cfg =
      dataflow_array(Dataflow::kWeightStationary, 8, false);
  for (const auto& [m, t, n] :
       {std::tuple{7, 7, 7}, std::tuple{12, 12, 5}, std::tuple{16, 16, 3}}) {
    EXPECT_EQ(matmul_latency(m, t, n, is_cfg).cycles,
              matmul_latency(n, t, m, ws_cfg).cycles)
        << m << "," << t << "," << n;
  }
  // MAC counts transpose regardless of tile shape.
  EXPECT_EQ(matmul_latency(4, 12, 9, is_cfg).mac_ops,
            matmul_latency(9, 12, 4, ws_cfg).mac_ops);
}

TEST(DataflowComparison, WsBeatsOsForTallSkinnyReuse) {
  // Large M with a small weight matrix: WS loads the weights once and
  // streams; OS re-skews every fold.
  const ArrayConfig os = dataflow_array(Dataflow::kOutputStationary, 8, true);
  const ArrayConfig ws = dataflow_array(Dataflow::kWeightStationary, 8, true);
  const std::int64_t m = 4096, t = 8, n = 8;
  EXPECT_LT(matmul_latency(m, t, n, ws).cycles,
            matmul_latency(m, t, n, os).cycles);
}

TEST(DataflowComparison, OsBeatsWsForDeepReduction) {
  // Deep reduction with small output: OS keeps outputs pinned while T
  // streams; WS folds over T and pays per-fold pipeline refill.
  const ArrayConfig os = dataflow_array(Dataflow::kOutputStationary, 8, true);
  const ArrayConfig ws = dataflow_array(Dataflow::kWeightStationary, 8, true);
  const std::int64_t m = 8, t = 4096, n = 8;
  EXPECT_LT(matmul_latency(m, t, n, os).cycles,
            matmul_latency(m, t, n, ws).cycles);
}

TEST(DataflowDispatch, ConvMappingsFollowConfiguredDataflow) {
  const ArrayConfig ws = dataflow_array(Dataflow::kWeightStationary, 16, true);
  EXPECT_EQ(conv_im2col_latency(14, 14, 3, 3, 32, 64, ws).cycles,
            matmul_latency(14 * 14, 3 * 3 * 32, 64, ws).cycles);
  // Depthwise stays single-column under every dataflow (the §III argument
  // is about the lowered shape, not the dataflow).
  const LatencyEstimate dw = depthwise_im2col_latency(32, 14, 14, 3, ws);
  EXPECT_LT(dw.utilization(), 1.0 / 16);
}


TEST(RectangularArrays, FoldWalkHonorsRowsAndColsIndependently) {
  ArrayConfig tall;
  tall.rows = 16;
  tall.cols = 4;
  tall.overlap_fold_drain = false;
  // M=16 fits the rows in one fold; N=16 needs 4 column folds.
  const LatencyEstimate est = matmul_latency(16, 8, 16, tall);
  EXPECT_EQ(est.folds, 4u);
  EXPECT_EQ(est.cycles, 4u * fold_cycles(16, 4, 8));
}

TEST(RectangularArrays, FuseWavesScaleWithRows) {
  // Twice the rows, same PEs: half the line waves.
  ArrayConfig tall;
  tall.rows = 32;
  tall.cols = 8;
  ArrayConfig wide;
  wide.rows = 8;
  wide.cols = 32;
  const LatencyEstimate on_tall = fuse1d_latency(64, 8, 3, tall);
  const LatencyEstimate on_wide = fuse1d_latency(64, 8, 3, wide);
  EXPECT_EQ(on_tall.folds, 2u);   // 64 lines / 32 rows
  EXPECT_EQ(on_wide.folds, 8u);   // 64 lines / 8 rows
  EXPECT_LT(on_tall.cycles, on_wide.cycles);
}

}  // namespace
}  // namespace fuse::systolic
