// Tests for the execution timeline and batched latency extensions.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "sched/timeline.hpp"
#include "systolic/mapping.hpp"
#include "util/check.hpp"

namespace fuse::sched {
namespace {

using nets::NetworkId;
using nn::OpKind;

ArrayConfig paper_array() { return systolic::square_array(64); }

// --- timeline -----------------------------------------------------------------

TEST(Timeline, IntervalsAreContiguousAndCoverTotal) {
  const auto model = nets::build_network(NetworkId::kMobileNetV2);
  const auto cfg = paper_array();
  const Timeline timeline = network_timeline(model, cfg);
  ASSERT_FALSE(timeline.entries.empty());
  std::uint64_t cursor = 0;
  for (const TimelineEntry& entry : timeline.entries) {
    EXPECT_EQ(entry.start_cycle, cursor) << entry.name;
    EXPECT_GT(entry.end_cycle, entry.start_cycle) << entry.name;
    cursor = entry.end_cycle;
  }
  EXPECT_EQ(timeline.total_cycles, cursor);
  EXPECT_EQ(timeline.total_cycles,
            network_latency(model, cfg).total_cycles);
}

TEST(Timeline, GlueOpsExcluded) {
  const auto model = nets::build_network(NetworkId::kMobileNetV3Small);
  const Timeline timeline = network_timeline(model, paper_array());
  for (const TimelineEntry& entry : timeline.entries) {
    EXPECT_TRUE(nn::op_kind_counts_for_latency(entry.kind)) << entry.name;
  }
  EXPECT_LT(timeline.entries.size(), model.layers.size());
}

TEST(Timeline, EntriesReferenceTheirLayers) {
  const auto model = nets::build_network(NetworkId::kMobileNetV1);
  const Timeline timeline = network_timeline(model, paper_array());
  for (const TimelineEntry& entry : timeline.entries) {
    ASSERT_LT(entry.layer_index, model.layers.size());
    EXPECT_EQ(entry.name, model.layers[entry.layer_index].name);
    EXPECT_EQ(entry.kind, model.layers[entry.layer_index].kind);
  }
}

TEST(Timeline, CsvRoundTripHasOneRowPerEntry) {
  const auto model = nets::build_network(NetworkId::kMobileNetV3Small);
  const Timeline timeline = network_timeline(model, paper_array());
  const std::string path = testing::TempDir() + "/fuse_timeline.csv";
  write_timeline_csv(timeline, path);
  std::ifstream in(path);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ++rows;
  }
  EXPECT_EQ(rows, timeline.entries.size() + 1);  // + header
  std::remove(path.c_str());
}

TEST(Gantt, EveryEntryGetsALine) {
  const auto model = nets::build_network(NetworkId::kMobileNetV3Small);
  const Timeline timeline = network_timeline(model, paper_array());
  const std::string gantt = ascii_gantt(timeline);
  std::size_t lines = 0;
  for (char c : gantt) {
    if (c == '\n') {
      ++lines;
    }
  }
  EXPECT_EQ(lines, timeline.entries.size() + 1);  // + total line
  EXPECT_NE(gantt.find('#'), std::string::npos);
  EXPECT_NE(gantt.find("total"), std::string::npos);
}

TEST(Gantt, DepthwiseDominatesBaselineVisibly) {
  // The longest bar in the baseline's gantt belongs to a depthwise layer.
  const auto model = nets::build_network(NetworkId::kMobileNetV2);
  const Timeline timeline = network_timeline(model, paper_array());
  const TimelineEntry* longest = &timeline.entries.front();
  for (const TimelineEntry& entry : timeline.entries) {
    if (entry.duration() > longest->duration()) {
      longest = &entry;
    }
  }
  EXPECT_EQ(longest->kind, OpKind::kDepthwiseConv) << longest->name;
}

TEST(Gantt, TooSmallWidthThrows) {
  const auto model = nets::build_network(NetworkId::kMobileNetV3Small);
  const Timeline timeline = network_timeline(model, paper_array());
  EXPECT_THROW(ascii_gantt(timeline, 4), util::Error);
}

// --- batched latency ------------------------------------------------------------

/// Cost of `batch` images through one layer, from the batched lowering.
systolic::LatencyEstimate batched_latency(const nn::LayerDesc& layer,
                                          const systolic::ArrayConfig& cfg,
                                          std::int64_t batch) {
  return systolic::lower_batched(layer, cfg, batch).total_latency();
}

/// Cycles for `batch` images through the whole network.
std::uint64_t batched_network_cycles(const nets::NetworkModel& model,
                                     const systolic::ArrayConfig& cfg,
                                     std::int64_t batch) {
  std::uint64_t total = 0;
  for (const nn::LayerDesc& layer : model.layers) {
    total += batched_latency(layer, cfg, batch).cycles;
  }
  return total;
}

TEST(BatchedLatency, BatchOneMatchesUnbatched) {
  const auto model = nets::build_network(NetworkId::kMnasNetB1);
  const auto cfg = paper_array();
  for (const nn::LayerDesc& layer : model.layers) {
    EXPECT_EQ(batched_latency(layer, cfg, 1).cycles,
              layer_latency(layer, cfg).cycles)
        << layer.name;
  }
  EXPECT_EQ(batched_network_cycles(model, cfg, 1),
            network_latency(model, cfg).total_cycles);
}

TEST(BatchedLatency, FullyConnectedUtilizationImprovesWithBatch) {
  const nn::LayerDesc fc = nn::make_fully_connected("fc", 1024, 1000);
  const auto cfg = paper_array();
  const auto b1 = batched_latency(fc, cfg, 1);
  const auto b64 = batched_latency(fc, cfg, 64);
  EXPECT_GT(b64.utilization(), 20 * b1.utilization());
  // Throughput (images per cycle) improves dramatically too.
  EXPECT_LT(b64.cycles, 4 * b1.cycles);  // 64 images for < 4x the time
}

TEST(BatchedLatency, ConvScalesRoughlyLinearly) {
  const nn::LayerDesc conv = nn::make_conv("c", 32, 28, 28, 64, 3, 1, 1);
  const auto cfg = paper_array();
  const auto b1 = batched_latency(conv, cfg, 1);
  const auto b4 = batched_latency(conv, cfg, 4);
  EXPECT_GE(b4.cycles, 3 * b1.cycles);
  EXPECT_LE(b4.cycles, 4 * b1.cycles + 1000);
  EXPECT_EQ(b4.mac_ops, 4 * b1.mac_ops);
}

TEST(BatchedLatency, DepthwisePathologySurvivesBatching) {
  // Batching does NOT fix depthwise: the lowered matrix still has one
  // column, so utilization stays bounded by 1/cols regardless of batch.
  const nn::LayerDesc dw = nn::make_depthwise("dw", 32, 28, 28, 3, 1, 1);
  const auto cfg = paper_array();
  const auto b16 = batched_latency(dw, cfg, 16);
  EXPECT_LT(b16.utilization(), 1.0 / 64);
}

TEST(BatchedLatency, FuseSpeedupHoldsAtBatch) {
  const auto cfg = paper_array();
  const auto base = nets::build_network(NetworkId::kMobileNetV2);
  const auto half = nets::build_network(
      NetworkId::kMobileNetV2,
      core::uniform_modes(17, core::FuseMode::kHalf));
  const double speedup_b8 =
      static_cast<double>(batched_network_cycles(base, cfg, 8)) /
      static_cast<double>(batched_network_cycles(half, cfg, 8));
  EXPECT_GT(speedup_b8, 5.0);
}

TEST(BatchedLatency, InvalidBatchThrows) {
  const nn::LayerDesc fc = nn::make_fully_connected("fc", 8, 8);
  EXPECT_THROW(batched_latency(fc, paper_array(), 0), util::Error);
}

}  // namespace
}  // namespace fuse::sched
