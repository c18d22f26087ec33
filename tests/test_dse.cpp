// Tests for the design-space explorer (dse/pareto.hpp, dse/explore.hpp):
// dominance edge cases (ties, exact equality, single-point frontiers),
// incremental pruning bookkeeping, axis enumeration, and the explorer's
// frontier against the batch form.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dse/explore.hpp"
#include "dse/pareto.hpp"
#include "nn/ops.hpp"

namespace fuse::dse {
namespace {

Objectives make_obj(double lat, double area, double power) {
  Objectives o;
  o.latency_ms = lat;
  o.area_mm2 = area;
  o.power_w = power;
  return o;
}

// --- dominance ---------------------------------------------------------------

TEST(Dominates, StrictOnAllAxes) {
  EXPECT_TRUE(dominates(make_obj(1, 1, 1), make_obj(2, 2, 2)));
  EXPECT_FALSE(dominates(make_obj(2, 2, 2), make_obj(1, 1, 1)));
}

TEST(Dominates, TieOnOneAxisStillDominates) {
  // Equal latency, strictly better area/power.
  EXPECT_TRUE(dominates(make_obj(1, 1, 1), make_obj(1, 2, 2)));
  // Equal on two axes, better on one.
  EXPECT_TRUE(dominates(make_obj(1, 1, 0.5), make_obj(1, 1, 1)));
}

TEST(Dominates, ExactlyEqualPointsDoNotDominate) {
  const Objectives a = make_obj(1, 2, 3);
  EXPECT_FALSE(dominates(a, a));
}

TEST(Dominates, TradeoffIsIncomparable) {
  // Better latency, worse area: neither dominates.
  EXPECT_FALSE(dominates(make_obj(1, 3, 1), make_obj(2, 2, 1)));
  EXPECT_FALSE(dominates(make_obj(2, 2, 1), make_obj(1, 3, 1)));
}

// --- ParetoFront -------------------------------------------------------------

TEST(ParetoFront, SinglePointFrontier) {
  ParetoFront front;
  EXPECT_TRUE(front.offer(0, make_obj(1, 1, 1)));
  ASSERT_EQ(front.entries().size(), 1u);
  EXPECT_EQ(front.entries()[0].id, 0u);
  EXPECT_EQ(front.pruned(), 0u);
}

TEST(ParetoFront, DominatedOfferRejected) {
  ParetoFront front;
  EXPECT_TRUE(front.offer(0, make_obj(1, 1, 1)));
  EXPECT_FALSE(front.offer(1, make_obj(2, 2, 2)));
  EXPECT_EQ(front.entries().size(), 1u);
  EXPECT_EQ(front.pruned(), 1u);
}

TEST(ParetoFront, NewPointEvictsDominated) {
  ParetoFront front;
  EXPECT_TRUE(front.offer(0, make_obj(3, 3, 3)));
  EXPECT_TRUE(front.offer(1, make_obj(4, 1, 1)));  // incomparable: stays
  EXPECT_TRUE(front.offer(2, make_obj(2, 2, 2)));  // evicts 0, not 1
  ASSERT_EQ(front.entries().size(), 2u);
  EXPECT_EQ(front.entries()[0].id, 1u);  // survivor order preserved
  EXPECT_EQ(front.entries()[1].id, 2u);
  EXPECT_EQ(front.pruned(), 1u);
}

TEST(ParetoFront, EqualPointsBothSurvive) {
  ParetoFront front;
  EXPECT_TRUE(front.offer(0, make_obj(1, 2, 3)));
  EXPECT_TRUE(front.offer(1, make_obj(1, 2, 3)));
  EXPECT_EQ(front.entries().size(), 2u);
  EXPECT_EQ(front.pruned(), 0u);
}

TEST(ParetoFrontier, BatchMatchesIncremental) {
  const std::vector<Objectives> objs = {
      make_obj(3, 3, 3), make_obj(1, 4, 1), make_obj(2, 2, 2),
      make_obj(2, 2, 2),  // duplicate of the previous: both survive
      make_obj(5, 5, 5),  // dominated
  };
  const std::vector<std::size_t> ids = pareto_frontier(objs);
  EXPECT_EQ(ids, (std::vector<std::size_t>{1, 2, 3}));
}

// --- axis enumeration --------------------------------------------------------

TEST(Enumerate, FullGridSizeAndOrderStable) {
  const DseAxes axes;
  const std::vector<DesignPoint> points = enumerate_design_points(axes);
  // 5 shapes x 2 broadcast x 3 pipelining x 3 datapath x 2 sram.
  EXPECT_EQ(points.size(), 180u);
  // Shape-major nested order: the first block shares the first shape.
  EXPECT_EQ(points[0].cfg.rows, 16);
  EXPECT_EQ(points[0].cfg.cols, 256);
  EXPECT_FALSE(points[0].cfg.broadcast_links);
  // Memory dtype always paired to the datapath.
  for (const DesignPoint& p : points) {
    EXPECT_EQ(p.mem.dtype_bytes, p.cfg.datapath_bytes());
    EXPECT_EQ(p.cfg.pe_count(), 64 * 64);
  }
}

TEST(Enumerate, LabelsAreUnique) {
  const std::vector<DesignPoint> points =
      enumerate_design_points(DseAxes{});
  std::vector<std::string> labels;
  for (const DesignPoint& p : points) {
    labels.push_back(p.label());
  }
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(std::unique(labels.begin(), labels.end()), labels.end());
}

// --- explore ----------------------------------------------------------------

// A cut-down grid over a small workload: every point's objectives equal a
// direct evaluate_design_point call, and the explorer's incremental
// frontier equals the batch frontier of those objectives.
TEST(Explore, FrontierMatchesBatchFrontier) {
  DseAxes axes;
  axes.shapes = {{32, 128}, {64, 64}};
  axes.datapaths = {systolic::Datapath::kFp16};
  axes.sram_bytes = {8 * 1024 * 1024};
  // 2 shapes x 2 broadcast x 3 pipelining = 12 points.
  const std::vector<nets::NetworkModel> workload = {
      nets::build_network(nets::NetworkId::kMobileNetV3Small)};

  const ExploreResult result = explore(axes, workload);
  ASSERT_EQ(result.points.size(), 12u);
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    std::uint64_t bound = 0;
    const Objectives obj = evaluate_design_point(
        result.points[i], workload, sched::SchedMode::kFused, &bound);
    EXPECT_EQ(result.objectives[i].latency_ms, obj.latency_ms);
    EXPECT_EQ(result.bound_cycles[i], bound);
  }
  std::vector<std::size_t> ids;
  for (const ParetoEntry& entry : result.front.entries()) {
    ids.push_back(entry.id);
  }
  EXPECT_EQ(ids, pareto_frontier(result.objectives));
}

// The frontier must never be empty on a non-empty grid, and every
// non-frontier point must be dominated by some frontier member.
TEST(Explore, FrontierCoversGrid) {
  DseAxes axes;
  axes.shapes = {{64, 64}};
  axes.pipelinings = {systolic::Pipelining::kPipelined};
  // 1 shape x 2 broadcast x 1 pipelining x 3 datapath x 2 sram = 12.
  const std::vector<nets::NetworkModel> workload = {
      nets::build_network(nets::NetworkId::kMobileNetV3Small)};
  const ExploreResult result = explore(axes, workload);
  ASSERT_FALSE(result.front.entries().empty());
  std::vector<bool> on_front(result.points.size(), false);
  for (const ParetoEntry& entry : result.front.entries()) {
    on_front[entry.id] = true;
  }
  for (std::size_t i = 0; i < result.objectives.size(); ++i) {
    if (on_front[i]) {
      continue;
    }
    bool dominated = false;
    for (const ParetoEntry& entry : result.front.entries()) {
      if (dominates(entry.obj, result.objectives[i])) {
        dominated = true;
        break;
      }
    }
    EXPECT_TRUE(dominated) << "point " << i
                           << " missing from frontier but undominated";
  }
}

}  // namespace
}  // namespace fuse::dse
