// Micro-kernel wall-clock benchmarks (google-benchmark): reference-vs-
// fast pairs for every operator the kernel backend accelerates (dense
// conv, the 3x3 stride-2 stem at 224^2 and at 128^2 batch 8, pointwise
// expansion and projection, depthwise at stride 1 and 2, FuSe row/col,
// 7^2 channelwise, linear at batch 8 and 1) at MobileNet geometries, the
// FuSeConv stage forward under both backends, and the cycle-level
// simulator primitives. These support Fig. 8(c)'s operator-level view
// with host-side numbers and keep the simulator's own cost visible.
//
// Every leg runs kRepetitions times, and the repetitions of all legs run
// interleaved in random order, so a slow phase of a shared host spreads
// over many legs instead of landing on one. The console shows each leg's
// aggregates over its repetitions, in registration order.
//
// Besides the usual google-benchmark flags, `--json=<path>` writes the
// perf-trajectory artifact results/BENCH_kernels.json
// (tools/regenerate_results.sh): in-file provenance, the metric families
// tools/bench_compare.py gates on, and one row per benchmark {op,
// backend, isa, ns_per_op, gflops}, both the median over the
// repetitions of real time, with their min and max beside them. The
// fast_scalar legs pin the scalar ISA so the artifact records the
// scalar-vs-SIMD split on the machine that produced it. The provenance
// names this repo's build type and, as the library reports it,
// google-benchmark's own.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/fuseconv.hpp"
#include "nn/ops.hpp"
#include "systolic/sim.hpp"
#include "tensor/tensor.hpp"
#include "util/cpu_features.hpp"
#include "util/rng.hpp"

namespace {

using fuse::nn::Conv2dParams;
using fuse::nn::KernelBackend;
using fuse::nn::KernelChoice;
using fuse::nn::KernelIsa;
using fuse::tensor::Shape;
using fuse::tensor::Tensor;

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  fuse::util::Rng rng(seed);
  Tensor t(std::move(shape));
  t.fill_uniform(rng, -1.0F, 1.0F);
  return t;
}

/// The kernel route of each leg of the ref-vs-fast pairs. fast_scalar
/// pins the portable scalar ISA so the fast/fast_scalar pair isolates the
/// SIMD micro-kernel speedup from the blocking/fusion win the scalar fast
/// path already has; fast runs on the best ISA available.
const KernelChoice kReference{KernelBackend::kReference, KernelIsa::kScalar};
const KernelChoice kFast{};
const KernelChoice kFastScalar{KernelBackend::kFast, KernelIsa::kScalar};

/// Records the FLOP count of one op. The reporter turns it into GFLOP/s
/// with the run's real time per op, the clock ns_per_op reports.
void set_flops(benchmark::State& state, std::int64_t macs) {
  state.counters["flop_per_op"] =
      benchmark::Counter(static_cast<double>(2 * macs));
}

/// Repetitions of every leg; the artifact reports their median, min and
/// max.
constexpr int kRepetitions = 5;

double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

double max_of(const std::vector<double>& v) {
  return *std::max_element(v.begin(), v.end());
}

/// Every leg's registration: kRepetitions runs, min and max beside
/// google-benchmark's own aggregates, and only the aggregates on the
/// console.
void repeated(benchmark::internal::Benchmark* b) {
  b->Repetitions(kRepetitions)
      ->ComputeStatistics("min", min_of)
      ->ComputeStatistics("max", max_of)
      ->DisplayAggregatesOnly();
}

/// Registers func's reference, fast and fast_scalar legs.
#define KERNEL_LEGS(func)                                          \
  BENCHMARK_CAPTURE(func, reference, kReference)->Apply(repeated); \
  BENCHMARK_CAPTURE(func, fast, kFast)->Apply(repeated);           \
  BENCHMARK_CAPTURE(func, fast_scalar, kFastScalar)->Apply(repeated)

/// Shared driver for the conv pairs: runs nn::conv2d through the public
/// dispatcher on the variant's route.
void run_conv(benchmark::State& state, const KernelChoice& v,
              const Tensor& input, const Tensor& weight,
              const Conv2dParams& p, std::int64_t macs) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(fuse::nn::conv2d(input, weight, nullptr, p, v));
  }
  set_flops(state, macs);
}

// --- The MobileNet-V2 stem filter at half resolution: [1, 3, 112, 112] -> 32,
// 3x3 stride 2 pad 1.
void BM_Conv3x3(benchmark::State& state, KernelChoice v) {
  const Tensor input = random_tensor(Shape{1, 3, 112, 112}, 3);
  const Tensor weight = random_tensor(Shape{32, 3, 3, 3}, 4);
  const Conv2dParams p{2, 2, 1, 1, 1, 1, 1};
  run_conv(state, v, input, weight, p,
           /*macs=*/static_cast<std::int64_t>(32) * 3 * 3 * 3 * 56 * 56);
}
KERNEL_LEGS(BM_Conv3x3);

// --- The paper networks' dense stem at 224^2: [1, 3, 224, 224] -> 32,
// 3x3 stride 2 pad 1.
void BM_StemConv224(benchmark::State& state, KernelChoice v) {
  const Tensor input = random_tensor(Shape{1, 3, 224, 224}, 31);
  const Tensor weight = random_tensor(Shape{32, 3, 3, 3}, 32);
  const Conv2dParams p{2, 2, 1, 1, 1, 1, 1};
  run_conv(state, v, input, weight, p,
           /*macs=*/static_cast<std::int64_t>(32) * 3 * 3 * 3 * 112 * 112);
}
KERNEL_LEGS(BM_StemConv224);

// --- The serving workload's batched stem (width 0.5 at 128^2):
// [8, 3, 128, 128] -> 16, 3x3 stride 2 pad 1.
void BM_StemConv128Batch8(benchmark::State& state, KernelChoice v) {
  const Tensor input = random_tensor(Shape{8, 3, 128, 128}, 33);
  const Tensor weight = random_tensor(Shape{16, 3, 3, 3}, 34);
  const Conv2dParams p{2, 2, 1, 1, 1, 1, 1};
  run_conv(state, v, input, weight, p,
           /*macs=*/static_cast<std::int64_t>(8) * 16 * 3 * 3 * 3 * 64 * 64);
}
KERNEL_LEGS(BM_StemConv128Batch8);

// --- MobileNet-V2 expansion pointwise: [1, 96, 14, 14] -> 576, 1x1.
void BM_PointwiseConv(benchmark::State& state, KernelChoice v) {
  const Tensor input = random_tensor(Shape{1, 96, 14, 14}, 5);
  const Tensor weight = random_tensor(Shape{576, 96, 1, 1}, 6);
  run_conv(state, v, input, weight, Conv2dParams{},
           /*macs=*/static_cast<std::int64_t>(576) * 96 * 14 * 14);
}
KERNEL_LEGS(BM_PointwiseConv);

// --- MobileNet-V2 projection pointwise: [1, 144, 56, 56] -> 24, 1x1 (few
// output channels, many positions).
void BM_PointwiseProjection(benchmark::State& state, KernelChoice v) {
  const Tensor input = random_tensor(Shape{1, 144, 56, 56}, 22);
  const Tensor weight = random_tensor(Shape{24, 144, 1, 1}, 23);
  run_conv(state, v, input, weight, Conv2dParams{},
           /*macs=*/static_cast<std::int64_t>(24) * 144 * 56 * 56);
}
KERNEL_LEGS(BM_PointwiseProjection);

// --- MobileNet-V2 depthwise: [1, 144, 56, 56], 3x3 pad 1, groups = C.
void BM_DepthwiseConv3x3(benchmark::State& state, KernelChoice v) {
  const Tensor input = random_tensor(Shape{1, 144, 56, 56}, 7);
  const Tensor weight = random_tensor(Shape{144, 1, 3, 3}, 8);
  const Conv2dParams p{1, 1, 1, 1, 1, 1, 144};
  run_conv(state, v, input, weight, p,
           /*macs=*/static_cast<std::int64_t>(144) * 9 * 56 * 56);
}
KERNEL_LEGS(BM_DepthwiseConv3x3);

// --- MobileNet-V2 stride-2 depthwise: [1, 96, 112, 112], 3x3 stride 2
// pad 1 (the exact double-lane route under AVX2).
void BM_DepthwiseConv3x3S2(benchmark::State& state, KernelChoice v) {
  const Tensor input = random_tensor(Shape{1, 96, 112, 112}, 24);
  const Tensor weight = random_tensor(Shape{96, 1, 3, 3}, 25);
  const Conv2dParams p{2, 2, 1, 1, 1, 1, 96};
  run_conv(state, v, input, weight, p,
           /*macs=*/static_cast<std::int64_t>(96) * 9 * 56 * 56);
}
KERNEL_LEGS(BM_DepthwiseConv3x3S2);

// --- Last-stage 7^2 channelwise (MobileNet-V3-Large's 960-channel
// depthwise, MobileNet-V1's 1024-channel FuSe row and col), where a
// plane is narrower than one 8-output vector interior.
void run_channelwise_7x7(benchmark::State& state, const KernelChoice& v,
                         std::int64_t channels, std::int64_t kh,
                         std::int64_t kw) {
  const Tensor input = random_tensor(Shape{1, channels, 7, 7}, 26);
  const Tensor weight = random_tensor(Shape{channels, 1, kh, kw}, 27);
  const Conv2dParams p{1, 1, kh / 2, kw / 2, 1, 1, channels};
  run_conv(state, v, input, weight, p,
           /*macs=*/channels * kh * kw * 7 * 7);
}

void BM_DepthwiseConv3x3At7(benchmark::State& state, KernelChoice v) {
  run_channelwise_7x7(state, v, 960, 3, 3);
}
KERNEL_LEGS(BM_DepthwiseConv3x3At7);

void BM_FuseRowAt7(benchmark::State& state, KernelChoice v) {
  run_channelwise_7x7(state, v, 1024, 1, 3);
}
KERNEL_LEGS(BM_FuseRowAt7);

void BM_FuseColAt7(benchmark::State& state, KernelChoice v) {
  run_channelwise_7x7(state, v, 1024, 3, 1);
}
KERNEL_LEGS(BM_FuseColAt7);

// --- FuSe row branch: the same geometry factored to 1x3, groups = C.
void BM_FuseRow(benchmark::State& state, KernelChoice v) {
  const Tensor input = random_tensor(Shape{1, 144, 56, 56}, 9);
  const Tensor weight = random_tensor(Shape{144, 1, 1, 3}, 10);
  const Conv2dParams p{1, 1, 0, 1, 1, 1, 144};
  run_conv(state, v, input, weight, p,
           /*macs=*/static_cast<std::int64_t>(144) * 3 * 56 * 56);
}
KERNEL_LEGS(BM_FuseRow);

// --- FuSe col branch: 3x1, groups = C.
void BM_FuseCol(benchmark::State& state, KernelChoice v) {
  const Tensor input = random_tensor(Shape{1, 144, 56, 56}, 11);
  const Tensor weight = random_tensor(Shape{144, 1, 3, 1}, 12);
  const Conv2dParams p{1, 1, 1, 0, 1, 1, 144};
  run_conv(state, v, input, weight, p,
           /*macs=*/static_cast<std::int64_t>(144) * 3 * 56 * 56);
}
KERNEL_LEGS(BM_FuseCol);

// --- Classifier: [batch, 1280] x [1000, 1280] linear, at a serving batch
// of 8 and at batch 1 (one image, as in layer-by-layer inference).
void run_linear(benchmark::State& state, const KernelChoice& v,
                std::int64_t batch) {
  const Tensor input = random_tensor(Shape{batch, 1280}, 13);
  const Tensor weight = random_tensor(Shape{1000, 1280}, 14);
  const Tensor bias = random_tensor(Shape{1000}, 15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fuse::nn::linear(input, weight, &bias, v));
  }
  set_flops(state, batch * 1280 * 1000);
}

void BM_Linear(benchmark::State& state, KernelChoice v) {
  run_linear(state, v, 8);
}
KERNEL_LEGS(BM_Linear);

void BM_LinearBatch1(benchmark::State& state, KernelChoice v) {
  run_linear(state, v, 1);
}
KERNEL_LEGS(BM_LinearBatch1);

// --- FuSeConv stage forward (both 1-D branches + concat/pointwise as
// applicable) through the dispatcher, MobileNet-scale shrunk 4x.
constexpr std::int64_t kC = 32;
constexpr std::int64_t kHW = 28;

void run_fuse_stage(benchmark::State& state, const KernelChoice& v,
                    fuse::core::FuseVariant variant) {
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
    benchmark::DoNotOptimize(stage.forward(input, v));
  }
}

void BM_FuseConvHalf(benchmark::State& state, KernelChoice v) {
  run_fuse_stage(state, v, fuse::core::FuseVariant::kHalf);
}
BENCHMARK_CAPTURE(BM_FuseConvHalf, reference, kReference)->Apply(repeated);
BENCHMARK_CAPTURE(BM_FuseConvHalf, fast, kFast)->Apply(repeated);

void BM_FuseConvFull(benchmark::State& state, KernelChoice v) {
  run_fuse_stage(state, v, fuse::core::FuseVariant::kFull);
}
BENCHMARK_CAPTURE(BM_FuseConvFull, reference, kReference)->Apply(repeated);
BENCHMARK_CAPTURE(BM_FuseConvFull, fast, kFast)->Apply(repeated);

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
BENCHMARK(BM_SimMatmul)->Arg(8)->Arg(16)->Arg(32)->Apply(repeated);

void BM_SimConv1dBroadcast(benchmark::State& state) {
  const std::int64_t size = state.range(0);
  fuse::systolic::SystolicArraySim sim(fuse::systolic::square_array(size));
  const Tensor lines = random_tensor(Shape{size, size + 2}, 20);
  const Tensor kernels = random_tensor(Shape{size, 3}, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.conv1d_broadcast(lines, kernels));
  }
}
BENCHMARK(BM_SimConv1dBroadcast)->Arg(8)->Arg(16)->Arg(32)->Apply(repeated);

// --- Reporting -----------------------------------------------------------

/// One leg's real time per op over its repetitions, and the FLOPs of one
/// op (0 for the legs that count none).
struct JsonRow {
  std::string name;
  double ns_median = 0.0;
  double ns_min = 0.0;
  double ns_max = 0.0;
  double flop = 0.0;
};

/// Console output of every leg's aggregates, plus a captured row per leg
/// for --json. The interleaved repetitions finish in random order, so
/// both are held until the last one and then put in registration order.
/// Color only on a real terminal — an explicitly-passed ConsoleReporter
/// would otherwise embed escape codes in the piped golden.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  CapturingReporter()
      : benchmark::ConsoleReporter(isatty(fileno(stdout)) != 0
                                       ? OO_ColorTabular
                                       : OO_Tabular) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    runs_.insert(runs_.end(), reports.begin(), reports.end());
  }

  void Finalize() override {
    std::stable_sort(runs_.begin(), runs_.end(),
                     [](const Run& a, const Run& b) {
                       return std::tie(a.family_index,
                                       a.per_family_instance_index) <
                              std::tie(b.family_index,
                                       b.per_family_instance_index);
                     });
    benchmark::ConsoleReporter::ReportRuns(runs_);
    benchmark::ConsoleReporter::Finalize();
    for (const Run& run : runs_) {
      if (run.error_occurred) {
        continue;
      }
      const std::string& args = run.run_name.args;
      const std::string name =
          run.run_name.function_name + (args.empty() ? "" : "/" + args);
      if (rows_.empty() || rows_.back().name != name) {
        rows_.push_back(JsonRow{name});
      }
      JsonRow& row = rows_.back();
      const double ns = run.GetAdjustedRealTime();  // default unit: ns
      if (run.aggregate_name == "median") {
        row.ns_median = ns;
        const auto it = run.counters.find("flop_per_op");
        row.flop = it != run.counters.end() ? it->second.value : 0.0;
      } else if (run.aggregate_name == "min") {
        row.ns_min = ns;
      } else if (run.aggregate_name == "max") {
        row.ns_max = ns;
      }
    }
  }

  /// Also records the library's build type from the run's context, as
  /// google-benchmark's own JSON reporter states it ("debug" or
  /// "release"): a debug library times every op with its assertions on.
  bool ReportContext(const Context& context) override {
    std::ostringstream json;
    std::ostringstream warnings;
    benchmark::JSONReporter reporter;
    reporter.SetOutputStream(&json);
    reporter.SetErrorStream(&warnings);
    reporter.ReportContext(context);
    const std::string text = json.str();
    const std::string key = "\"library_build_type\": \"";
    const std::size_t start = text.find(key);
    if (start != std::string::npos) {
      const std::size_t from = start + key.size();
      library_build_type_ = text.substr(from, text.find('"', from) - from);
    }
    return benchmark::ConsoleReporter::ReportContext(context);
  }

  const std::vector<JsonRow>& rows() const { return rows_; }
  const std::string& library_build_type() const {
    return library_build_type_;
  }

 private:
  std::vector<Run> runs_;
  std::vector<JsonRow> rows_;
  std::string library_build_type_ = "unknown";
};

/// "BM_Conv3x3/fast_scalar" -> {"conv3x3", "fast_scalar"}; sim benches
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
/// pin scalar, other fast legs run on the best available ISA of the
/// producing machine, and the sim benches sit outside the kernel dispatch
/// entirely.
std::string isa_for_backend(const std::string& backend) {
  if (backend == "sim") {
    return "none";
  }
  if (backend == "reference" || backend == "fast_scalar") {
    return "scalar";
  }
  return fuse::nn::kernel_isa_name(kFast.isa);
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

/// GFLOP/s of `flop` FLOPs in `ns` nanoseconds (FLOP/ns), 0 when the
/// leg counts no FLOPs.
double gflops(double flop, double ns) { return ns > 0.0 ? flop / ns : 0.0; }

void write_json(const std::string& path, const std::vector<JsonRow>& rows,
                const std::string& library_build_type) {
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
      "\"benchmark_library_build_type\": \"%s\", \"repetitions\": %d, "
      "\"timing\": \"google-benchmark real time per op, median (min, max) "
      "over the repetitions, interleaved across legs; one thread\"},\n"
      "  \"metric_families\": {\"wall_lower_better\": [\"ns_per_op*\"], "
      "\"wall_higher_better\": [\"gflops*\"]},\n"
      "  \"rows\": [\n",
      std::thread::hardware_concurrency(),
      fuse::util::cpu_features().to_string().c_str(), kCompiler,
      FUSE_BUILD_TYPE, library_build_type.c_str(), kRepetitions);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& row = rows[i];
    const auto [op, backend] = parse_name(row.name);
    const std::string isa = isa_for_backend(backend);
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"op\": \"%s\", "
                 "\"backend\": \"%s\", \"isa\": \"%s\", "
                 "\"ns_per_op\": %.1f, \"ns_per_op_min\": %.1f, "
                 "\"ns_per_op_max\": %.1f, \"gflops\": %.3f, "
                 "\"gflops_min\": %.3f, \"gflops_max\": %.3f}%s\n",
                 row.name.c_str(), op.c_str(), backend.c_str(), isa.c_str(),
                 row.ns_median, row.ns_min, row.ns_max,
                 gflops(row.flop, row.ns_median), gflops(row.flop, row.ns_max),
                 gflops(row.flop, row.ns_min),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --json=<path> before google-benchmark sees the argv, and
  // interleave every leg's repetitions unless the command line says
  // otherwise (a later flag wins).
  std::string json_path;
  char interleave[] = "--benchmark_enable_random_interleaving=true";
  std::vector<char*> args{argv[0], interleave};
  for (int i = 1; i < argc; ++i) {
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
    write_json(json_path, reporter.rows(), reporter.library_build_type());
  }
  return 0;
}
