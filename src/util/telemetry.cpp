#include "util/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <fstream>
#include <ostream>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace fuse::util {

#if FUSE_TELEMETRY

int telemetry_thread_id() {
  static std::atomic<int> next{0};
  thread_local int id = next.fetch_add(1);
  return id;
}

void Gauge::add(std::int64_t delta) {
  const std::int64_t now =
      value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  raise_max(now);
}

void Gauge::set(std::int64_t value) {
  value_.store(value, std::memory_order_relaxed);
  raise_max(value);
}

void Gauge::raise_max(std::int64_t candidate) {
  std::int64_t seen = max_.load(std::memory_order_relaxed);
  while (candidate > seen &&
         !max_.compare_exchange_weak(seen, candidate,
                                     std::memory_order_relaxed)) {
  }
}

int Histogram::bucket_index(std::uint64_t value) {
  // The top bucket is open-ended so 64-bit-wide values stay in range.
  return value == 0 ? 0
                    : std::min(kBuckets - 1,
                               static_cast<int>(std::bit_width(value)));
}

std::uint64_t Histogram::bucket_lower_bound(int bucket) {
  FUSE_CHECK(bucket >= 0 && bucket < kBuckets) << "bucket " << bucket;
  return bucket == 0 ? 0 : 1ULL << (bucket - 1);
}

void Histogram::observe(std::uint64_t value) {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::uint64_t Histogram::bucket_count(int bucket) const {
  FUSE_CHECK(bucket >= 0 && bucket < kBuckets) << "bucket " << bucket;
  return buckets_[bucket].load(std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>();
  }
  return *slot;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"" << name
        << "\": " << counter->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out << (first ? "\n" : ",\n") << "    \"" << name
        << "\": {\"value\": " << gauge->value()
        << ", \"max\": " << gauge->max() << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out << (first ? "\n" : ",\n") << "    \"" << name
        << "\": {\"count\": " << histogram->count()
        << ", \"sum\": " << histogram->sum() << ", \"buckets\": [";
    bool first_bucket = true;
    for (int bucket = 0; bucket < Histogram::kBuckets; ++bucket) {
      const std::uint64_t n = histogram->bucket_count(bucket);
      if (n == 0) {
        continue;
      }
      out << (first_bucket ? "" : ", ") << '['
          << Histogram::bucket_lower_bound(bucket) << ", " << n << ']';
      first_bucket = false;
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

void Counter::reset() { value_.store(0, std::memory_order_relaxed); }

void Gauge::reset() {
  value_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

void Histogram::reset() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) {
    counter->reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->reset();
  }
}

namespace {

std::atomic<ProfileCollector*> g_profile_collector{nullptr};

// Per-thread stack of child-time accumulators: the top entry sums the
// wall time of spans nested inside the current span on this thread, which
// is exactly what the parent subtracts to get its self time. Spans are
// strict-LIFO RAII objects, so the stack discipline holds by construction.
thread_local std::vector<std::uint64_t> t_span_child_ns;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ProfileCollector* global_profile_collector() {
  return g_profile_collector.load(std::memory_order_acquire);
}

void set_global_profile_collector(ProfileCollector* collector) {
  g_profile_collector.store(collector, std::memory_order_release);
}

void ProfileCollector::record(const char* name, std::uint64_t total_us,
                              std::uint64_t self_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series& series = series_[name];
  series.samples.push_back(total_us);
  series.self_us += self_us;
}

double ProfileCollector::percentile(
    const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  FUSE_CHECK(q >= 0.0 && q <= 1.0) << "percentile q=" << q;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  const double low = static_cast<double>(sorted[lo]);
  if (frac == 0.0 || lo + 1 == sorted.size()) {
    return low;
  }
  return low + frac * (static_cast<double>(sorted[lo + 1]) - low);
}

std::vector<ProfileCollector::TimerStats> ProfileCollector::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TimerStats> result;
  result.reserve(series_.size());
  for (const auto& [name, series] : series_) {
    TimerStats stats;
    stats.name = name;
    stats.count = series.samples.size();
    stats.self_us = series.self_us;
    std::vector<std::uint64_t> sorted = series.samples;
    std::sort(sorted.begin(), sorted.end());
    for (const std::uint64_t sample : sorted) {
      stats.total_us += sample;
    }
    if (!sorted.empty()) {
      stats.min_us = sorted.front();
      stats.max_us = sorted.back();
    }
    stats.p50_us = percentile(sorted, 0.50);
    stats.p90_us = percentile(sorted, 0.90);
    stats.p99_us = percentile(sorted, 0.99);
    result.push_back(std::move(stats));
  }
  return result;
}

void ProfileCollector::write_json(std::ostream& out) const {
  const std::vector<TimerStats> timers = snapshot();
  out << "{\n  \"schema\": 1,\n  \"timers\": {";
  bool first = true;
  for (const TimerStats& stats : timers) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(stats.name)
        << "\": {\"count\": " << stats.count
        << ", \"total_us\": " << stats.total_us
        << ", \"self_us\": " << stats.self_us
        << ", \"min_us\": " << stats.min_us
        << ", \"max_us\": " << stats.max_us
        << ", \"p50_us\": " << fixed(stats.p50_us, 1)
        << ", \"p90_us\": " << fixed(stats.p90_us, 1)
        << ", \"p99_us\": " << fixed(stats.p99_us, 1) << ", \"buckets\": [";
    // log2 bucketization of the exact samples, Histogram's boundaries.
    std::uint64_t buckets[Histogram::kBuckets] = {};
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const std::uint64_t sample : series_.at(stats.name).samples) {
        ++buckets[Histogram::bucket_index(sample)];
      }
    }
    bool first_bucket = true;
    for (int bucket = 0; bucket < Histogram::kBuckets; ++bucket) {
      if (buckets[bucket] == 0) {
        continue;
      }
      out << (first_bucket ? "" : ", ") << '['
          << Histogram::bucket_lower_bound(bucket) << ", "
          << buckets[bucket] << ']';
      first_bucket = false;
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

void ProfileCollector::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  FUSE_CHECK(out.good()) << "cannot open profile output file " << path;
  write_json(out);
}

void ProfileCollector::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  series_.clear();
}

ScopedSpan::ScopedSpan(const char* name, const char* category)
    : sink_(global_trace_sink()),
      collector_(global_profile_collector()),
      name_(name),
      category_(category) {
  if (sink_ != nullptr) {
    start_us_ = sink_->now_us();
  }
  if (collector_ != nullptr) {
    prof_start_ns_ = steady_now_ns();
    t_span_child_ns.push_back(0);
  }
}

ScopedSpan::~ScopedSpan() {
  if (sink_ != nullptr) {
    sink_->complete_event(name_, category_, start_us_,
                          sink_->now_us() - start_us_,
                          telemetry_thread_id(), std::move(args_));
  }
  if (collector_ != nullptr) {
    const std::uint64_t duration_ns = steady_now_ns() - prof_start_ns_;
    const std::uint64_t child_ns = t_span_child_ns.back();
    t_span_child_ns.pop_back();
    if (!t_span_child_ns.empty()) {
      t_span_child_ns.back() += duration_ns;
    }
    const std::uint64_t self_ns =
        duration_ns > child_ns ? duration_ns - child_ns : 0;
    collector_->record(name_, duration_ns / 1000, self_ns / 1000);
  }
}

void ScopedSpan::annotate(const char* key, std::string value) {
  if (sink_ != nullptr) {
    args_.push_back(trace_str(key, std::move(value)));
  }
}

void ScopedSpan::annotate(const char* key, std::uint64_t value) {
  if (sink_ != nullptr) {
    args_.push_back(trace_num(key, value));
  }
}

#else  // !FUSE_TELEMETRY

void MetricsRegistry::write_json(std::ostream& out) const {
  out << "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": "
         "{}\n}\n";
}

void ProfileCollector::write_json(std::ostream& out) const {
  out << "{\n  \"schema\": 1,\n  \"timers\": {}\n}\n";
}

void ProfileCollector::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  FUSE_CHECK(out.good()) << "cannot open profile output file " << path;
  write_json(out);
}

#endif  // FUSE_TELEMETRY

MetricsRegistry& metrics() {
  // Intentionally leaked: a thread pool draining its queue in a static
  // destructor still bumps pool metrics, so the registry must outlive
  // every other static.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

void MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  FUSE_CHECK(out.good()) << "cannot open stats output file " << path;
  write_json(out);
}

}  // namespace fuse::util
