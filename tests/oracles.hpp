// Oracles shared by the differential harness (test_differential.cpp) and
// the suites that keep hand-built grids: the field-for-field comparison of
// a closed-form LayerCost with the plan it mirrors, and the operand shapes
// the layer executor takes.
#pragma once

#include <gtest/gtest.h>

#include "nn/layer.hpp"
#include "sched/netplan.hpp"
#include "systolic/mapping.hpp"
#include "systolic/trace.hpp"
#include "tensor/shape.hpp"

namespace fuse::test {

/// Field-for-field equality of a closed-form cost and the fold of the plan
/// it mirrors: latency, DRAM traffic, peak fold footprint, on-array flag.
inline void expect_matches_plan(const sched::LayerCost& fast,
                                const systolic::MappingPlan& plan,
                                const systolic::ArrayConfig& cfg,
                                const systolic::MemoryConfig& mem) {
  const systolic::LatencyEstimate oracle = plan.total_latency();
  const systolic::TrafficEstimate traffic =
      systolic::plan_traffic(plan, cfg, mem);
  EXPECT_EQ(fast.latency.cycles, oracle.cycles);
  EXPECT_EQ(fast.latency.folds, oracle.folds);
  EXPECT_EQ(fast.latency.mac_ops, oracle.mac_ops);
  EXPECT_EQ(fast.latency.pe_count, oracle.pe_count);
  EXPECT_EQ(fast.traffic.input_bytes, traffic.input_bytes);
  EXPECT_EQ(fast.traffic.weight_bytes, traffic.weight_bytes);
  EXPECT_EQ(fast.traffic.output_bytes, traffic.output_bytes);
  EXPECT_EQ(fast.peak_fold_bytes,
            systolic::plan_peak_fold_bytes(plan, cfg, mem));
  EXPECT_EQ(fast.on_array, !plan.ops.empty());
}

/// The batch-1 input sched::execute_layer_on_array takes for `layer`.
inline tensor::Shape executor_input_shape(const nn::LayerDesc& layer) {
  return layer.kind == nn::OpKind::kFullyConnected
             ? tensor::Shape{1, layer.in_c, 1, 1}
             : tensor::Shape{1, layer.in_c, layer.in_h, layer.in_w};
}

/// The weight sched::execute_layer_on_array takes for `layer`.
inline tensor::Shape executor_weight_shape(const nn::LayerDesc& layer) {
  return layer.kind == nn::OpKind::kFullyConnected
             ? tensor::Shape{layer.out_c, layer.in_c}
             : tensor::Shape{layer.out_c, layer.in_c / layer.groups,
                             layer.kernel_h, layer.kernel_w};
}

}  // namespace fuse::test
