// Execute a layer ON the simulated array: real tensors in, real tensors
// out, with the cycle count measured by the PE-grid simulator rather than
// predicted by the analytic model. This is the repo's end-to-end
// verification path — tests assert, for every operator kind, that
//   execute_layer_on_array(...).output  == fuse::nn reference
//   execute_layer_on_array(...).cycles  == sched::layer_latency(...)
// (with fold-drain overlap disabled, which is what the simulator models).
#pragma once

#include <vector>

#include "nn/layer.hpp"
#include "sched/netplan.hpp"
#include "systolic/sim.hpp"
#include "tensor/tensor.hpp"

namespace fuse::sched {

/// Output and measured cost of one simulated layer.
struct LayerExecution {
  tensor::Tensor output;  // [1, C_out, H_out, W_out]
  std::uint64_t cycles = 0;
  std::uint64_t folds = 0;
  std::uint64_t mac_ops = 0;
};

/// Runs `layer` on the simulated systolic array.
///
/// input  : [1, in_c, in_h, in_w] (batch 1, as in the paper's evaluation).
/// weight : layout depends on the kind —
///   standard conv  [out_c, in_c, kh, kw]
///   depthwise      [C, 1, k, k]
///   pointwise      [out_c, in_c, 1, 1]
///   fuse row       [C, 1, 1, k]
///   fuse col       [C, 1, k, 1]
///   fully connected [out_f, in_f]
///
/// The layer is lowered through systolic::lower() and the resulting
/// MappingPlan picks the execution path — including the serialized
/// no-broadcast FuSe fallback — so measured cycles track the analytic
/// model for every config. The executor hands the simulator its tensors
/// in the layouts it holds them in: pointwise and FC layers are one
/// SystolicArraySim::matmul_wx of the weight and the input as given, a
/// standard conv one matmul_wx of the filter bank and its gathered
/// [taps, positions] columns, and a depthwise or FuSe layer one
/// SystolicArraySim::channelwise call, which lays out and prices the
/// §III-B per-channel matmuls and the FuSe lines (strided
/// lines compute densely and discard, systolic::fuse_dense_width;
/// padding on either axis reads zeros). Glue ops (pool/activation/add)
/// and grouped convs do not run on the array and are rejected. `backend`
/// picks the simulator engine and `isa` the kernel ISA of its fast
/// engine; every pair produces the same bits.
LayerExecution execute_layer_on_array(
    const nn::LayerDesc& layer, const tensor::Tensor& input,
    const tensor::Tensor& weight, const systolic::ArrayConfig& cfg,
    systolic::SimBackend backend = systolic::SimBackend::kFast,
    nn::KernelIsa isa = nn::best_isa());

/// Output and measured cost of one simulated whole-network inference.
struct NetworkExecution {
  tensor::Tensor output;
  std::uint64_t cycles = 0;
  std::uint64_t folds = 0;
  std::uint64_t mac_ops = 0;
};

/// Runs a whole network on the fast simulator engine, driven by a NetworkPlan
/// (sched/netplan.hpp). Layers execute in schedule order with activations
/// flowing forward; `weights` is parallel to model.layers (entries for
/// glue ops are ignored). Every layer must be on-array executable — the
/// executor rejects models with pool/add glue, which the flat activation
/// chain cannot thread through. Fused schedules change WHICH DRAM
/// transfers happen, never the arithmetic: outputs are bit-identical
/// across modes, which tests/test_netplan.cpp pins with memcmp. With
/// cfg.overlap_fold_drain == false the measured cycles equal
/// plan.total_cycles exactly (the simulator's accounting), FUSE_CHECKed
/// here.
NetworkExecution execute_network_on_array(
    const nets::NetworkModel& model,
    const std::vector<tensor::Tensor>& weights,
    const tensor::Tensor& input, const NetworkPlan& plan,
    const systolic::ArrayConfig& cfg);

}  // namespace fuse::sched
