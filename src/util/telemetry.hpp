// Process-wide, thread-safe metrics registry + scoped-span API.
//
// Three metric shapes, all cycle- or count-valued (no wall-clock values in
// any golden path — the only clock in this module is the steady_clock
// behind ScopedSpan, which fires only when a TraceSink is attached):
//   * Counter   — monotonic uint64, relaxed atomic add.
//   * Gauge     — int64 level with a high-water mark (queue depths).
//   * Histogram — fixed log2 buckets (bucket i counts values whose
//     bit_width is i, i.e. [2^(i-1), 2^i)), atomic per-bucket counts.
//
// Metrics are owned by the registry and looked up by name; call sites
// cache the returned reference in a function-local static so the hot path
// is a single relaxed atomic increment:
//
//   static util::Counter& submitted =
//       util::metrics().counter("pool.tasks_submitted");
//   submitted.add();
//
// ScopedSpan emits a Chrome trace_event complete span into the globally
// attached TraceSink (trace_sink.hpp); with no sink attached constructing
// one is a single atomic load and nothing else.
//
// Compile-time gate: FUSE_TELEMETRY (default 1; the CMake option
// FUSE_TELEMETRY=OFF defines it to 0). With it off, every class here
// becomes an inline no-op stub — instrumented call sites compile to
// nothing and the registry reports no metrics.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#ifndef FUSE_TELEMETRY
#define FUSE_TELEMETRY 1
#endif

#if FUSE_TELEMETRY

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "util/trace_sink.hpp"

namespace fuse::util {

/// True in builds that compile the real instrumentation.
constexpr bool telemetry_enabled() { return true; }

/// Small per-thread integer id (0, 1, 2, ... in first-use order) used as
/// the "tid" of runtime trace events.
int telemetry_thread_id();

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  /// Zeroes the counter. Test isolation only — production metrics are
  /// monotonic.
  void reset();

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  /// Adds a (possibly negative) delta and updates the high-water mark.
  void add(std::int64_t delta);
  void set(std::int64_t value);
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void reset();

 private:
  void raise_max(std::int64_t candidate);

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

class Histogram {
 public:
  /// Bucket 0 counts zeros; bucket i >= 1 counts values in [2^(i-1), 2^i);
  /// the last bucket is open-ended.
  static constexpr int kBuckets = 64;

  void observe(std::uint64_t value);
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(int bucket) const;
  void reset();

  static int bucket_index(std::uint64_t value);
  static std::uint64_t bucket_lower_bound(int bucket);

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Name -> metric table. Lookups take a mutex (cache the reference);
/// returned references stay valid for the registry's lifetime. Names are
/// dot-separated lowercase paths, "module.metric" (docs/observability.md
/// has the catalog).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} — valid
  /// JSON, metrics sorted by name, histogram buckets as nonzero
  /// [lower_bound, count] pairs.
  void write_json(std::ostream& out) const;
  void write_json_file(const std::string& path) const;

  /// Zeroes every registered metric (test isolation). Registered
  /// references stay valid.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry every instrumentation site reports into.
MetricsRegistry& metrics();

/// Wall-clock duration statistics over named spans. ScopedSpan feeds the
/// globally attached collector (like the TraceSink, attachment is opt-in
/// — benches wire it to --profile-json); each span contributes one sample
/// of its total wall time plus its SELF time (total minus the time spent
/// inside nested spans on the same thread, tracked via a thread-local
/// span stack). Samples are stored exactly, so the percentile summaries
/// are exact order statistics with linear interpolation — not the log2
/// approximation of Histogram.
class ProfileCollector {
 public:
  struct TimerStats {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_us = 0;  // sum of span wall times (children incl.)
    std::uint64_t self_us = 0;   // sum excluding nested-span time
    std::uint64_t min_us = 0;
    std::uint64_t max_us = 0;
    double p50_us = 0.0;
    double p90_us = 0.0;
    double p99_us = 0.0;
  };

  /// One finished span. Thread-safe; called by ~ScopedSpan.
  void record(const char* name, std::uint64_t total_us,
              std::uint64_t self_us);

  /// Per-name summaries, sorted by name.
  std::vector<TimerStats> snapshot() const;

  /// {"schema": 1, "timers": {name: {count, total_us, self_us, min_us,
  /// max_us, p50_us, p90_us, p99_us, buckets: [[lb, n], ...]}, ...}} —
  /// buckets use Histogram's log2 boundaries for plotting.
  void write_json(std::ostream& out) const;
  void write_json_file(const std::string& path) const;

  void reset();

  /// Exact percentile of an ascending-sorted sample vector: rank
  /// q * (n - 1), linearly interpolated between the surrounding samples.
  /// 0 samples -> 0; 1 sample -> that sample. q in [0, 1].
  static double percentile(const std::vector<std::uint64_t>& sorted,
                           double q);

 private:
  struct Series {
    std::vector<std::uint64_t> samples;  // total wall us, arrival order
    std::uint64_t self_us = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Series> series_;
};

/// The attached collector, or nullptr. Same contract as the trace sink:
/// attach before spawning instrumented work, detach before destroying.
ProfileCollector* global_profile_collector();
void set_global_profile_collector(ProfileCollector* collector);

/// RAII runtime span: records [construction, destruction) as a trace_event
/// complete span ("ph":"X") in wall microseconds on the calling thread's
/// track — IF a global TraceSink is attached — and as one duration sample
/// in the globally attached ProfileCollector, if any. With neither
/// attached, constructing one is two atomic loads and nothing else.
/// `name`/`category` must outlive the span (string literals).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* category = "sweep");
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const {
    return sink_ != nullptr || collector_ != nullptr;
  }

  /// Attaches a string / numeric arg shown in the viewer's detail pane.
  /// No-ops (arguments not evaluated further) when no sink is attached.
  void annotate(const char* key, std::string value);
  void annotate(const char* key, std::uint64_t value);

 private:
  TraceSink* sink_;
  ProfileCollector* collector_;
  const char* name_;
  const char* category_;
  std::uint64_t start_us_ = 0;       // sink clock (sink attached)
  std::uint64_t prof_start_ns_ = 0;  // steady_clock (collector attached)
  std::vector<TraceArg> args_;
};

}  // namespace fuse::util

#else  // !FUSE_TELEMETRY — inline no-op stubs, same API surface.

namespace fuse::util {

constexpr bool telemetry_enabled() { return false; }

inline int telemetry_thread_id() { return 0; }

class Counter {
 public:
  void add(std::uint64_t = 1) {}
  std::uint64_t value() const { return 0; }
  void reset() {}
};

class Gauge {
 public:
  void add(std::int64_t) {}
  void set(std::int64_t) {}
  std::int64_t value() const { return 0; }
  std::int64_t max() const { return 0; }
  void reset() {}
};

class Histogram {
 public:
  static constexpr int kBuckets = 64;
  void observe(std::uint64_t) {}
  std::uint64_t count() const { return 0; }
  std::uint64_t sum() const { return 0; }
  std::uint64_t bucket_count(int) const { return 0; }
  static int bucket_index(std::uint64_t) { return 0; }
  static std::uint64_t bucket_lower_bound(int) { return 0; }
  void reset() {}
};

class MetricsRegistry {
 public:
  Counter& counter(const std::string&) { return counter_; }
  Gauge& gauge(const std::string&) { return gauge_; }
  Histogram& histogram(const std::string&) { return histogram_; }
  void write_json(std::ostream& out) const;
  void write_json_file(const std::string& path) const;
  void reset() {}

 private:
  Counter counter_;
  Gauge gauge_;
  Histogram histogram_;
};

MetricsRegistry& metrics();

class ProfileCollector {
 public:
  struct TimerStats {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_us = 0;
    std::uint64_t self_us = 0;
    std::uint64_t min_us = 0;
    std::uint64_t max_us = 0;
    double p50_us = 0.0;
    double p90_us = 0.0;
    double p99_us = 0.0;
  };

  void record(const char*, std::uint64_t, std::uint64_t) {}
  std::vector<TimerStats> snapshot() const { return {}; }
  void write_json(std::ostream& out) const;
  void write_json_file(const std::string& path) const;
  void reset() {}
  static double percentile(const std::vector<std::uint64_t>&, double) {
    return 0.0;
  }
};

inline ProfileCollector* global_profile_collector() { return nullptr; }
inline void set_global_profile_collector(ProfileCollector*) {}

class ScopedSpan {
 public:
  explicit ScopedSpan(const char*, const char* = "sweep") {}
  bool active() const { return false; }
  void annotate(const char*, std::string) {}
  void annotate(const char*, std::uint64_t) {}
};

}  // namespace fuse::util

#endif  // FUSE_TELEMETRY
