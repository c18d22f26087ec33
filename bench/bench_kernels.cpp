// Micro-kernel wall-clock benchmarks (google-benchmark): reference-vs-
// fast pairs for every operator the kernel backend accelerates (GEMM,
// dense conv, pointwise expansion and projection, depthwise, FuSe
// row/col, linear at batch 8 and 1) at MobileNet-V2 geometries, the
// FuSeConv stage forward under both backends, and the cycle-level
// simulator primitives. These support Fig. 8(c)'s operator-level view
// with host-side numbers and keep the simulator's own cost visible.
//
// Besides the usual google-benchmark flags, `--json=<path>` writes the
// perf-trajectory artifact results/BENCH_kernels.json
// (tools/regenerate_results.sh): in-file provenance, the metric families
// tools/bench_compare.py gates on, and one row per benchmark {op,
// backend, isa, ns_per_op, gflops}, both from real time. The fast_scalar
// legs pin the scalar ISA so the artifact records the scalar-vs-SIMD
// split on the machine that produced it.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fuseconv.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "systolic/sim.hpp"
#include "tensor/tensor.hpp"
#include "util/cpu_features.hpp"
#include "util/rng.hpp"

namespace {

using fuse::nn::Conv2dParams;
using fuse::nn::KernelBackend;
using fuse::tensor::Shape;
using fuse::tensor::Tensor;

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  fuse::util::Rng rng(seed);
  Tensor t(std::move(shape));
  t.fill_uniform(rng, -1.0F, 1.0F);
  return t;
}

/// Variant label for the ref-vs-fast pairs. fast_scalar pins the
/// portable scalar ISA so the fast/fast_scalar pair isolates the SIMD
/// micro-kernel speedup from the blocking/fusion win the scalar fast path
/// already has.
struct Variant {
  const char* label;
  KernelBackend backend;
  const char* isa;  // "scalar" or "auto" (resolves to best available)
};

constexpr Variant kReference{"reference", KernelBackend::kReference,
                             "scalar"};
constexpr Variant kFast{"fast", KernelBackend::kFast, "auto"};
constexpr Variant kFastScalar{"fast_scalar", KernelBackend::kFast, "scalar"};

/// Pins backend + ISA for one benchmark run and restores fast on the best
/// available ISA afterwards (the process default).
struct VariantScope {
  explicit VariantScope(const Variant& v) {
    fuse::nn::set_kernel_backend(v.backend);
    fuse::nn::set_kernel_isa(parse_isa(v.isa));
  }
  ~VariantScope() {
    fuse::nn::set_kernel_backend(KernelBackend::kFast);
    fuse::nn::set_kernel_isa(parse_isa("auto"));
  }

  static fuse::nn::KernelIsa parse_isa(const char* name) {
    fuse::nn::KernelIsa isa = fuse::nn::KernelIsa::kScalar;
    fuse::nn::parse_kernel_isa(name, &isa);
    return isa;
  }
};

/// Records the FLOP count of one op. The reporter turns it into GFLOP/s
/// with the run's real time per op, the clock ns_per_op reports.
void set_flops(benchmark::State& state, std::int64_t macs) {
  state.counters["flop_per_op"] =
      benchmark::Counter(static_cast<double>(2 * macs));
}

// --- GEMM at the MobileNet-V2 bottleneck geometry (im2col of the
// [1, 96, 14, 14] -> 576 expansion): [196, 576] x [576, 96].
void BM_Gemm(benchmark::State& state, Variant v) {
  VariantScope scope(v);
  const Tensor a = random_tensor(Shape{196, 576}, 1);
  const Tensor b = random_tensor(Shape{576, 96}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.backend == KernelBackend::kReference
                                 ? fuse::nn::matmul_reference(a, b)
                                 : fuse::nn::kernels::matmul_fast(a, b));
  }
  set_flops(state, 196 * 576 * 96);
}
BENCHMARK_CAPTURE(BM_Gemm, reference, kReference);
BENCHMARK_CAPTURE(BM_Gemm, fast, kFast);
BENCHMARK_CAPTURE(BM_Gemm, fast_scalar, kFastScalar);

/// Shared driver for the conv pairs: runs nn::conv2d through the public
/// dispatcher under the variant's backend.
void run_conv(benchmark::State& state, const Variant& v, const Tensor& input,
              const Tensor& weight, const Conv2dParams& p,
              std::int64_t macs) {
  VariantScope scope(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fuse::nn::conv2d(input, weight, nullptr, p));
  }
  set_flops(state, macs);
}

// --- MobileNet-V2 stem: [1, 3, 112, 112] -> 32, 3x3 stride 2 pad 1.
void BM_Conv3x3(benchmark::State& state, Variant v) {
  const Tensor input = random_tensor(Shape{1, 3, 112, 112}, 3);
  const Tensor weight = random_tensor(Shape{32, 3, 3, 3}, 4);
  const Conv2dParams p{2, 2, 1, 1, 1, 1, 1};
  run_conv(state, v, input, weight, p,
           /*macs=*/static_cast<std::int64_t>(32) * 3 * 3 * 3 * 56 * 56);
}
BENCHMARK_CAPTURE(BM_Conv3x3, reference, kReference);
BENCHMARK_CAPTURE(BM_Conv3x3, fast, kFast);
BENCHMARK_CAPTURE(BM_Conv3x3, fast_scalar, kFastScalar);

// --- MobileNet-V2 expansion pointwise: [1, 96, 14, 14] -> 576, 1x1.
void BM_PointwiseConv(benchmark::State& state, Variant v) {
  const Tensor input = random_tensor(Shape{1, 96, 14, 14}, 5);
  const Tensor weight = random_tensor(Shape{576, 96, 1, 1}, 6);
  run_conv(state, v, input, weight, Conv2dParams{},
           /*macs=*/static_cast<std::int64_t>(576) * 96 * 14 * 14);
}
BENCHMARK_CAPTURE(BM_PointwiseConv, reference, kReference);
BENCHMARK_CAPTURE(BM_PointwiseConv, fast, kFast);
BENCHMARK_CAPTURE(BM_PointwiseConv, fast_scalar, kFastScalar);

// --- MobileNet-V2 projection pointwise: [1, 144, 56, 56] -> 24, 1x1 (few
// output channels, many positions).
void BM_PointwiseProjection(benchmark::State& state, Variant v) {
  const Tensor input = random_tensor(Shape{1, 144, 56, 56}, 22);
  const Tensor weight = random_tensor(Shape{24, 144, 1, 1}, 23);
  run_conv(state, v, input, weight, Conv2dParams{},
           /*macs=*/static_cast<std::int64_t>(24) * 144 * 56 * 56);
}
BENCHMARK_CAPTURE(BM_PointwiseProjection, reference, kReference);
BENCHMARK_CAPTURE(BM_PointwiseProjection, fast, kFast);
BENCHMARK_CAPTURE(BM_PointwiseProjection, fast_scalar, kFastScalar);

// --- MobileNet-V2 depthwise: [1, 144, 56, 56], 3x3 pad 1, groups = C.
void BM_DepthwiseConv3x3(benchmark::State& state, Variant v) {
  const Tensor input = random_tensor(Shape{1, 144, 56, 56}, 7);
  const Tensor weight = random_tensor(Shape{144, 1, 3, 3}, 8);
  const Conv2dParams p{1, 1, 1, 1, 1, 1, 144};
  run_conv(state, v, input, weight, p,
           /*macs=*/static_cast<std::int64_t>(144) * 9 * 56 * 56);
}
BENCHMARK_CAPTURE(BM_DepthwiseConv3x3, reference, kReference);
BENCHMARK_CAPTURE(BM_DepthwiseConv3x3, fast, kFast);
BENCHMARK_CAPTURE(BM_DepthwiseConv3x3, fast_scalar, kFastScalar);

// --- FuSe row branch: the same geometry factored to 1x3, groups = C.
void BM_FuseRow(benchmark::State& state, Variant v) {
  const Tensor input = random_tensor(Shape{1, 144, 56, 56}, 9);
  const Tensor weight = random_tensor(Shape{144, 1, 1, 3}, 10);
  const Conv2dParams p{1, 1, 0, 1, 1, 1, 144};
  run_conv(state, v, input, weight, p,
           /*macs=*/static_cast<std::int64_t>(144) * 3 * 56 * 56);
}
BENCHMARK_CAPTURE(BM_FuseRow, reference, kReference);
BENCHMARK_CAPTURE(BM_FuseRow, fast, kFast);
BENCHMARK_CAPTURE(BM_FuseRow, fast_scalar, kFastScalar);

// --- FuSe col branch: 3x1, groups = C.
void BM_FuseCol(benchmark::State& state, Variant v) {
  const Tensor input = random_tensor(Shape{1, 144, 56, 56}, 11);
  const Tensor weight = random_tensor(Shape{144, 1, 3, 1}, 12);
  const Conv2dParams p{1, 1, 1, 0, 1, 1, 144};
  run_conv(state, v, input, weight, p,
           /*macs=*/static_cast<std::int64_t>(144) * 3 * 56 * 56);
}
BENCHMARK_CAPTURE(BM_FuseCol, reference, kReference);
BENCHMARK_CAPTURE(BM_FuseCol, fast, kFast);
BENCHMARK_CAPTURE(BM_FuseCol, fast_scalar, kFastScalar);

// --- Classifier: [batch, 1280] x [1000, 1280] linear, at a serving batch
// of 8 and at batch 1 (one image, as in layer-by-layer inference).
void run_linear(benchmark::State& state, const Variant& v,
                std::int64_t batch) {
  VariantScope scope(v);
  const Tensor input = random_tensor(Shape{batch, 1280}, 13);
  const Tensor weight = random_tensor(Shape{1000, 1280}, 14);
  const Tensor bias = random_tensor(Shape{1000}, 15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fuse::nn::linear(input, weight, &bias));
  }
  set_flops(state, batch * 1280 * 1000);
}

void BM_Linear(benchmark::State& state, Variant v) { run_linear(state, v, 8); }
BENCHMARK_CAPTURE(BM_Linear, reference, kReference);
BENCHMARK_CAPTURE(BM_Linear, fast, kFast);
BENCHMARK_CAPTURE(BM_Linear, fast_scalar, kFastScalar);

void BM_LinearBatch1(benchmark::State& state, Variant v) {
  run_linear(state, v, 1);
}
BENCHMARK_CAPTURE(BM_LinearBatch1, reference, kReference);
BENCHMARK_CAPTURE(BM_LinearBatch1, fast, kFast);
BENCHMARK_CAPTURE(BM_LinearBatch1, fast_scalar, kFastScalar);

// --- FuSeConv stage forward (both 1-D branches + concat/pointwise as
// applicable) through the dispatcher, MobileNet-scale shrunk 4x.
constexpr std::int64_t kC = 32;
constexpr std::int64_t kHW = 28;

void run_fuse_stage(benchmark::State& state, const Variant& v,
                    fuse::core::FuseVariant variant) {
  VariantScope scope(v);
  fuse::core::FuseConvSpec spec;
  spec.channels = kC;
  spec.in_h = kHW;
  spec.in_w = kHW;
  spec.kernel = 3;
  spec.stride = 1;
  spec.pad = 1;
  spec.variant = variant;
  fuse::util::Rng rng(16);
  const fuse::core::FuseConvStage stage(spec, rng);
  const Tensor input = random_tensor(Shape{1, kC, kHW, kHW}, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stage.forward(input));
  }
}

void BM_FuseConvHalf(benchmark::State& state, Variant v) {
  run_fuse_stage(state, v, fuse::core::FuseVariant::kHalf);
}
BENCHMARK_CAPTURE(BM_FuseConvHalf, reference, kReference);
BENCHMARK_CAPTURE(BM_FuseConvHalf, fast, kFast);

void BM_FuseConvFull(benchmark::State& state, Variant v) {
  run_fuse_stage(state, v, fuse::core::FuseVariant::kFull);
}
BENCHMARK_CAPTURE(BM_FuseConvFull, reference, kReference);
BENCHMARK_CAPTURE(BM_FuseConvFull, fast, kFast);

// --- Cycle-level simulator primitives (no backend pairing: the sim is
// the measured artifact itself).
void BM_SimMatmul(benchmark::State& state) {
  const std::int64_t size = state.range(0);
  fuse::systolic::SystolicArraySim sim(fuse::systolic::square_array(size));
  const Tensor a = random_tensor(Shape{size, 32}, 18);
  const Tensor b = random_tensor(Shape{32, size}, 19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.matmul(a, b));
  }
}
BENCHMARK(BM_SimMatmul)->Arg(8)->Arg(16)->Arg(32);

void BM_SimConv1dBroadcast(benchmark::State& state) {
  const std::int64_t size = state.range(0);
  fuse::systolic::SystolicArraySim sim(fuse::systolic::square_array(size));
  const Tensor lines = random_tensor(Shape{size, size + 2}, 20);
  const Tensor kernels = random_tensor(Shape{size, 3}, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.conv1d_broadcast(lines, kernels));
  }
}
BENCHMARK(BM_SimConv1dBroadcast)->Arg(8)->Arg(16)->Arg(32);

// --- Reporting -----------------------------------------------------------

struct JsonRow {
  std::string name;
  double ns_per_op = 0.0;
  double gflops = 0.0;
};

/// Console output as usual, plus a captured row per run for --json.
/// Color only on a real terminal — an explicitly-passed ConsoleReporter
/// would otherwise embed escape codes in the piped golden.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  CapturingReporter()
      : benchmark::ConsoleReporter(isatty(fileno(stdout)) != 0
                                       ? OO_ColorTabular
                                       : OO_Tabular) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) {
        continue;
      }
      JsonRow row;
      row.name = run.benchmark_name();
      row.ns_per_op = run.GetAdjustedRealTime();  // default unit: ns
      const auto it = run.counters.find("flop_per_op");
      if (it != run.counters.end()) {
        row.gflops = it->second.value / row.ns_per_op;  // FLOP/ns = GFLOP/s
      }
      rows_.push_back(std::move(row));
    }
  }

  const std::vector<JsonRow>& rows() const { return rows_; }

 private:
  std::vector<JsonRow> rows_;
};

/// "BM_Gemm/fast_scalar" -> {"gemm", "fast_scalar"}; sim benches
/// ("BM_SimMatmul/8") report backend "sim".
std::pair<std::string, std::string> parse_name(const std::string& name) {
  std::string op = name;
  std::string backend = "sim";
  const std::size_t slash = op.find('/');
  if (slash != std::string::npos) {
    const std::string suffix = op.substr(slash + 1);
    if (suffix == "reference" || suffix.rfind("fast", 0) == 0) {
      backend = suffix;
    }
    op = op.substr(0, slash);
  }
  if (op.rfind("BM_", 0) == 0) {
    op = op.substr(3);
  }
  for (char& c : op) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return {op, backend};
}

/// ISA the variant behind this row ran under: reference and fast_scalar
/// pin scalar, other fast legs resolve "auto" to the best available ISA
/// on the producing machine, and the sim benches sit outside the kernel
/// dispatch entirely.
std::string isa_for_backend(const std::string& backend) {
  if (backend == "sim") {
    return "none";
  }
  if (backend == "reference" || backend == "fast_scalar") {
    return "scalar";
  }
  return fuse::nn::kernel_isa_name(
      VariantScope::parse_isa("auto"));
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

void write_json(const std::string& path, const std::vector<JsonRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_kernels: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(
      f,
      "{\n  \"bench\": \"bench_kernels\",\n"
      "  \"provenance\": {\"cores\": %u, \"isa\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"timing\": \"google-benchmark real time per op; one thread\"},\n"
      "  \"metric_families\": {\"wall_lower_better\": [\"ns_per_op\"], "
      "\"wall_higher_better\": [\"gflops\"]},\n"
      "  \"rows\": [\n",
      std::thread::hardware_concurrency(),
      fuse::util::cpu_features().to_string().c_str(), kCompiler,
      FUSE_BUILD_TYPE);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto [op, backend] = parse_name(rows[i].name);
    const std::string isa = isa_for_backend(backend);
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"op\": \"%s\", "
                 "\"backend\": \"%s\", \"isa\": \"%s\", "
                 "\"ns_per_op\": %.1f, \"gflops\": %.3f}%s\n",
                 rows[i].name.c_str(), op.c_str(), backend.c_str(),
                 isa.c_str(), rows[i].ns_per_op, rows[i].gflops,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --json=<path> before google-benchmark sees the argv.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    write_json(json_path, reporter.rows());
  }
  return 0;
}
