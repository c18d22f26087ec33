// The perfbench program's shared vocabulary: the workload interface the
// timing loop drives, the in-memory span recorder of traced runs, and the
// metric rows every workload reports.
//
// Every timed call is timed from outside the library with steady_clock,
// so every rate is a wall-clock rate; CPU time is only ever reported as a
// cost. The benchmark sets no backend, thread or cache knob: it measures
// the library exactly as a caller gets it.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace fuse::nn {
enum class OpKind;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Sets `name` in `metrics` (which must already list it).
void set_metric(std::vector<Metric>& metrics, const std::string& name,
                double value);

/// The per-class breakdown of the nn.* and sim.* metrics, by
/// LayerDesc::kind: standard, depthwise, pointwise, fuse_row, fuse_col, fc.
constexpr int kNumLayerClasses = 6;
extern const char* const kLayerClasses[kNumLayerClasses];

/// Index into kLayerClasses, or -1 for glue ops (pool/activation/add).
int layer_class(fuse::nn::OpKind kind);

/// Every per-layer metric name with its unit, in report order. A traced
/// run reports all of them; a workload fills only the layers it drives,
/// the rest read 0.
std::vector<Metric> per_layer_catalog();

/// Spans of a traced run: kept in memory while the run measures and
/// written once, at exit, through util::TraceSink.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void enable() { enabled_ = true; }

  /// Records [start, end) under `name` for pass item `item`.
  void span(std::string name, const char* category, Clock::time_point start,
            Clock::time_point end, int item);

  /// Writes the spans as a Perfetto/Chrome trace-event JSON file.
  void write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    const char* category = "";
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    int item = 0;
  };

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// What every workload receives. The seed is the only input that varies
/// between runs; `root` is the checkout the goldens are read from.
struct Options {
  std::uint64_t seed = 1;
  bool perturb_expected = false;  // negative test: break one expected value
  std::string root = ".";
  std::string self_exe;  // this binary, for workloads that spawn themselves
};

/// One workload. Construction is its set-up (models, weights, inputs,
/// pools and a warm-up item); the harness times it.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Items in one pass. The harness times whole passes, item by item.
  virtual std::size_t items() const = 0;

  /// Runs item `index` and checks it against its expected values (first
  /// run checksum, exact cycle counts, ...). False when the check fails.
  /// Appends to `unit_ns` the wall ns of each of the item's units, its
  /// calls into the library, always in the same order; a workload that
  /// appends none makes the whole item its one unit.
  virtual bool run_item(std::size_t index,
                        std::vector<std::int64_t>& unit_ns) = 0;

  /// run_item for warm-up and verification, which keep no times.
  bool run_once(std::size_t index) {
    std::vector<std::int64_t> unit_ns;
    return run_item(index, unit_ns);
  }

  /// One-time check of every item against the library's oracles, outside
  /// all timed regions. Returns the number of items that failed.
  virtual std::size_t verify() = 0;

  /// Fills the per-layer metrics this workload drives from the spans of
  /// the traced window, which lasted `seconds`.
  virtual void layer_metrics(double seconds,
                             std::vector<Metric>& metrics) const = 0;

  /// Writes per-layer artifacts (CSV tables) into `dir`.
  virtual void write_artifacts(const std::string& /*dir*/) const {}

  Tracer tracer;
};

std::unique_ptr<Workload> make_sweep(const Options& options);
std::unique_ptr<Workload> make_host_infer(const Options& options);
std::unique_ptr<Workload> make_array_sim(const Options& options);
std::unique_ptr<Workload> make_serve_tensor(const Options& options);

/// Entry point of the process the sweep workload spawns per item.
int sweep_child_main();

/// Median of `values` (0 when empty). Takes a copy: callers keep order.
double median(std::vector<double> values);

/// Bit-level checksum of a float buffer, sampling every `stride`-th
/// element (cheap enough to run inside timed items).
std::uint64_t sampled_checksum(const float* data, std::int64_t count,
                               std::int64_t stride);

/// FNV-1a step over a 64-bit value.
std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t value);

}  // namespace perfbench
