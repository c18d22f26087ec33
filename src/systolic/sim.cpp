// Engine dispatch for the cycle-accurate simulator (see sim.hpp).
//
// The engines themselves live in sim_reference.cpp (per-cycle PE sweep,
// the oracle) and sim_fast.cpp (closed-form wavefront intervals). This
// file owns what is common to both: the public entry points that route to
// the constructor's engine, plan simulation, and heatmap rendering.
#include "systolic/sim.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "nn/kernels.hpp"
#include "systolic/sim_detail.hpp"
#include "tensor/im2col.hpp"
#include "util/check.hpp"
#include "util/telemetry.hpp"

namespace fuse::systolic {

using tensor::Shape;
using tensor::Tensor;

namespace {

// ---------------------------------------------------------------------------
// Telemetry (docs/observability.md catalog, "sim.*")
// ---------------------------------------------------------------------------

void count_dispatch(SimBackend backend) {
  static util::Counter& fast = util::metrics().counter("sim.dispatch.fast");
  static util::Counter& reference =
      util::metrics().counter("sim.dispatch.reference");
  (backend == SimBackend::kFast ? fast : reference).add();
}

/// matmul_wx's operands read as w [N, T] x x [T, M].
struct WxDims {
  std::int64_t n = 0;
  std::int64_t t = 0;
  std::int64_t m = 0;
};

/// Validates matmul_wx operands (sim.hpp states the reading): w of rank
/// >= 2 with N = w's first dimension rows of T values, and x whose
/// leading dimensions multiply to T.
WxDims check_wx_operands(const Tensor& w, const Tensor& x) {
  FUSE_CHECK(w.shape().rank() >= 2 && w.num_elements() > 0)
      << "sim matmul_wx expects a non-empty w of rank >= 2, got "
      << w.shape().to_string();
  WxDims d;
  d.n = w.shape().dim(0);
  d.t = w.num_elements() / d.n;
  std::int64_t lead = 1;
  for (std::int64_t i = 0; i < x.shape().rank() && lead < d.t; ++i) {
    lead *= x.shape().dim(i);
  }
  FUSE_CHECK(lead == d.t)
      << "sim matmul_wx: the leading dims of x " << x.shape().to_string()
      << " do not multiply to w's " << d.t << " columns";
  d.m = x.num_elements() / d.t;
  return d;
}

/// Validates a channelwise call: a depthwise or FuSe `geometry` whose
/// extents follow from its kernel, `input` [1, C, H, W], `weight`
/// [C, 1, Kh, Kw], and an `op` that is the layer's lowered primitive.
void check_channelwise_operands(const PrimitiveOp& op, const Tensor& input,
                                const Tensor& weight,
                                const nn::LayerDesc& layer) {
  using nn::OpKind;
  FUSE_CHECK(layer.kind == OpKind::kDepthwiseConv ||
             layer.kind == OpKind::kFuseRowConv ||
             layer.kind == OpKind::kFuseColConv)
      << "channelwise runs depthwise and FuSe layers, not "
      << nn::op_kind_name(layer.kind) << " (layer " << layer.name << ")";
  FUSE_CHECK(layer.in_c == layer.out_c &&
             layer.out_h == tensor::conv_out_dim(layer.in_h, layer.kernel_h,
                                                 layer.stride_h,
                                                 layer.pad_h) &&
             layer.out_w == tensor::conv_out_dim(layer.in_w, layer.kernel_w,
                                                 layer.stride_w, layer.pad_w))
      << "layer " << layer.name << ": channelwise geometry does not follow "
      << "from its input and kernel";
  FUSE_CHECK(input.shape() == Shape({1, layer.in_c, layer.in_h, layer.in_w}) &&
             weight.shape() ==
                 Shape({layer.in_c, 1, layer.kernel_h, layer.kernel_w}))
      << "layer " << layer.name << ": channelwise operands "
      << input.shape().to_string() << " and " << weight.shape().to_string()
      << " do not match the layer";
  const std::int64_t positions = layer.out_h * layer.out_w;
  if (layer.kind == OpKind::kDepthwiseConv) {
    FUSE_CHECK(op.kind == PrimitiveKind::kIm2colTile && op.m == positions &&
               op.k == layer.kernel_h * layer.kernel_w && op.n == 1 &&
               op.repeats == layer.in_c)
        << "depthwise plan does not match layer " << layer.name;
    return;
  }
  const bool row = layer.kind == OpKind::kFuseRowConv;
  const std::int64_t taps = row ? layer.kernel_w : layer.kernel_h;
  const std::int64_t padded =
      row ? layer.in_w + 2 * layer.pad_w : layer.in_h + 2 * layer.pad_h;
  FUSE_CHECK(op.kind == PrimitiveKind::kFuse1DLine &&
             op.lines == layer.in_c * (row ? layer.out_h : layer.out_w) &&
             op.taps == taps && op.line_out == padded - taps + 1 &&
             op.repeats == (op.broadcast ? 1 : op.lines))
      << "fuse plan does not match layer " << layer.name;
}

}  // namespace

bool parse_sim_backend(const std::string& name, SimBackend* out) {
  if (name == "fast") {
    *out = SimBackend::kFast;
    return true;
  }
  if (name == "reference" || name == "ref") {
    *out = SimBackend::kReference;
    return true;
  }
  return false;
}

const char* sim_backend_name(SimBackend backend) {
  return backend == SimBackend::kFast ? "fast" : "reference";
}

SystolicArraySim::SystolicArraySim(ArrayConfig cfg, SimBackend backend,
                                   nn::KernelIsa isa)
    : cfg_(cfg), backend_(backend), isa_(isa) {
  cfg_.validate();
  // The cycle-accurate sims model the fully pipelined array (one register
  // stage per PE). Transparent configs change the skew/drain geometry the
  // sims hard-code, so the analytic model is the only oracle for them.
  FUSE_CHECK(cfg_.pipelining == Pipelining::kPipelined)
      << "SystolicArraySim models fully pipelined arrays only; got "
      << pipelining_name(cfg_.pipelining);
}

SimResult SystolicArraySim::matmul(const Tensor& a, const Tensor& b) {
  switch (cfg_.dataflow) {
    case Dataflow::kOutputStationary:
      return matmul_os(a, b);
    case Dataflow::kWeightStationary:
      return matmul_ws(a, b);
    case Dataflow::kInputStationary:
      return matmul_is(a, b);
  }
  FUSE_CHECK(false) << "unknown dataflow";
  return {};
}

SimResult SystolicArraySim::matmul_os(const Tensor& a, const Tensor& b) {
  count_dispatch(backend_);
  return backend_ == SimBackend::kFast ? matmul_os_fast(a, b)
                                       : matmul_os_reference(a, b);
}

SimResult SystolicArraySim::matmul_ws(const Tensor& a, const Tensor& b) {
  count_dispatch(backend_);
  return backend_ == SimBackend::kFast ? matmul_ws_fast(a, b)
                                       : matmul_ws_reference(a, b);
}

SimResult SystolicArraySim::matmul_is(const Tensor& a, const Tensor& b) {
  count_dispatch(backend_);
  return backend_ == SimBackend::kFast ? matmul_is_fast(a, b)
                                       : matmul_is_reference(a, b);
}

SimResult SystolicArraySim::conv1d_broadcast(const Tensor& lines,
                                             const Tensor& kernels) {
  count_dispatch(backend_);
  return backend_ == SimBackend::kFast
             ? conv1d_broadcast_fast(lines, kernels)
             : conv1d_broadcast_reference(lines, kernels);
}

SimResult SystolicArraySim::matmul_wx(const Tensor& w, const Tensor& x) {
  const WxDims d = check_wx_operands(w, x);
  if (backend_ == SimBackend::kFast &&
      cfg_.dataflow == Dataflow::kOutputStationary) {
    count_dispatch(backend_);
    return matmul_wx_fast(w, x, d.n, d.t, d.m);
  }
  Tensor x_t(Shape{d.m, d.t});
  nn::kernels::transpose(x.data(), d.t, d.m, x_t.data());
  Tensor w_t(Shape{d.t, d.n});
  nn::kernels::transpose(w.data(), d.n, d.t, w_t.data());
  SimResult result = matmul(x_t, w_t);
  Tensor output(Shape{d.n, d.m});
  nn::kernels::transpose(result.output.data(), d.m, d.n, output.data());
  result.output = std::move(output);
  return result;
}

SimResult SystolicArraySim::channelwise(const PrimitiveOp& op,
                                        const Tensor& input,
                                        const Tensor& weight,
                                        const nn::LayerDesc& geometry) {
  check_channelwise_operands(op, input, weight, geometry);
  // The kernel route needs every output to be one unsplit sum (an
  // output-stationary PE or a broadcast row) and every padding tap's
  // 0 x w to be a zero.
  const bool one_sum =
      op.broadcast || cfg_.dataflow == Dataflow::kOutputStationary;
  const float* w = weight.data();
  if (backend_ == SimBackend::kFast && one_sum &&
      std::all_of(w, w + weight.num_elements(),
                  [](float v) { return std::isfinite(v); })) {
    count_dispatch(backend_);
    return channelwise_fast(op, input, weight, geometry);
  }
  return channelwise_materialized(op, input, weight, geometry);
}

SimResult SystolicArraySim::run_plan(const MappingPlan& plan) {
  detail::PassSum total(cfg_);
  for (const PrimitiveOp& op : plan.ops) {
    // Operand values are irrelevant to the measured cost (busy cycles are
    // a function of tile geometry only), so zero tensors suffice; one
    // repeat is simulated and the counters scaled.
    SimResult unit;
    switch (op.kind) {
      case PrimitiveKind::kMatmulTile:
      case PrimitiveKind::kIm2colTile:
        unit = matmul(Tensor(Shape{op.m, op.k}), Tensor(Shape{op.k, op.n}));
        break;
      case PrimitiveKind::kFuse1DLine:
        if (op.broadcast) {
          unit = conv1d_broadcast(
              Tensor(Shape{op.lines, op.line_out + op.taps - 1}),
              Tensor(Shape{op.lines, op.taps}));
        } else {
          unit = matmul(Tensor(Shape{op.line_out, op.taps}),
                        Tensor(Shape{op.taps, 1}));
        }
        break;
    }
    total.add(unit, static_cast<std::uint64_t>(op.repeats));
  }
  return total.finish(Tensor());
}

std::string render_pe_heatmap(const Tensor& pe_busy) {
  FUSE_CHECK(pe_busy.shape().rank() == 2)
      << "pe_busy must be [rows, cols], got " << pe_busy.shape().to_string();
  const float peak = pe_busy.abs_max();
  std::string out;
  const std::int64_t rows = pe_busy.shape().dim(0);
  const std::int64_t cols = pe_busy.shape().dim(1);
  out.reserve(static_cast<std::size_t>(rows * (cols + 1)));
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      const float v = pe_busy.at(r, c);
      if (v <= 0.0F) {
        out.push_back('.');
      } else {
        const int level =
            1 + static_cast<int>(8.0F * v / peak);  // 1..9
        out.push_back(static_cast<char>('0' + std::min(level, 9)));
      }
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace fuse::systolic
