// Engine dispatch for the cycle-accurate simulator (see sim.hpp).
//
// The engines themselves live in sim_reference.cpp (per-cycle PE sweep,
// the oracle) and sim_fast.cpp (closed-form wavefront intervals). This
// file owns what is common to both: the public entry points that route to
// the constructor's engine, plan simulation, and heatmap rendering.
#include "systolic/sim.hpp"

#include <algorithm>
#include <string>
#include <vector>

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

SystolicArraySim::SystolicArraySim(ArrayConfig cfg, SimBackend backend)
    : cfg_(cfg), backend_(backend) {
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

SimResult SystolicArraySim::run_plan(const MappingPlan& plan) {
  SimResult total;
  // Scaled busy counts are summed in exact integers (the per-call tensors
  // hold integer-valued floats) and converted once at the end.
  std::vector<std::uint64_t> busy(
      static_cast<std::size_t>(cfg_.rows * cfg_.cols), 0);
  for (const PrimitiveOp& op : plan.ops) {
    // Operand values are irrelevant to the measured cost (busy cycles are
    // a function of tile geometry only), so zero tensors suffice; one
    // repeat is simulated and the counters scaled.
    SimResult unit;
    switch (op.kind) {
      case PrimitiveKind::kMatmulTile:
      case PrimitiveKind::kIm2colTile:
      case PrimitiveKind::kChannelwiseTile:
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
    const std::uint64_t repeats = static_cast<std::uint64_t>(op.repeats);
    total.cycles += unit.cycles * repeats;
    total.folds += unit.folds * repeats;
    total.mac_ops += unit.mac_ops * repeats;
    for (std::size_t i = 0; i < busy.size(); ++i) {
      busy[i] += static_cast<std::uint64_t>(
                     unit.pe_busy[static_cast<std::int64_t>(i)]) *
                 repeats;
    }
  }
  total.pe_busy = Tensor(Shape{cfg_.rows, cfg_.cols});
  for (std::size_t i = 0; i < busy.size(); ++i) {
    total.pe_busy[static_cast<std::int64_t>(i)] =
        static_cast<float>(busy[i]);
  }
  return total;
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
