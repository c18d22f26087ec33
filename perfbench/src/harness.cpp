#include "harness.hpp"

#include <algorithm>
#include <cstring>

#include "nn/layer.hpp"
#include "util/check.hpp"
#include "util/trace_sink.hpp"

namespace perfbench {

const char* const kLayerClasses[kNumLayerClasses] = {
    "standard", "depthwise", "pointwise", "fuse_row", "fuse_col", "fc"};

int layer_class(fuse::nn::OpKind kind) {
  using fuse::nn::OpKind;
  switch (kind) {
    case OpKind::kStandardConv:
    case OpKind::kGroupedConv:
      return 0;
    case OpKind::kDepthwiseConv:
      return 1;
    case OpKind::kPointwiseConv:
      return 2;
    case OpKind::kFuseRowConv:
      return 3;
    case OpKind::kFuseColConv:
      return 4;
    case OpKind::kFullyConnected:
      return 5;
    default:
      return -1;
  }
}

void set_metric(std::vector<Metric>& metrics, const std::string& name,
                double value) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      return;
    }
  }
  FUSE_CHECK(false) << "metric " << name << " is not in the catalog";
}

std::vector<Metric> per_layer_catalog() {
  std::vector<Metric> metrics = {
      {"sched.table1_rows.ms", 0.0, "ms"},
      {"sched.scaling_sweep.ms", 0.0, "ms"},
      {"dse.explore.ms", 0.0, "ms"},
      {"dse.configs_per_s", 0.0, "1/s"},
      {"dse.memo_hit_pct", 0.0, "%"},
  };
  for (const char* cls : kLayerClasses) {
    const std::string prefix = std::string("nn.") + cls;
    metrics.push_back({prefix + ".ms", 0.0, "ms"});
    metrics.push_back({prefix + ".calls", 0.0, "count"});
    metrics.push_back({prefix + ".gmacs_per_s", 0.0, "GMAC/s"});
    metrics.push_back({prefix + ".ns_per_modeled_cycle", 0.0, "ns/cycle"});
  }
  for (const char* cls : kLayerClasses) {
    const std::string prefix = std::string("sim.") + cls;
    metrics.push_back({prefix + ".ms", 0.0, "ms"});
    metrics.push_back({prefix + ".ns_per_fold", 0.0, "ns/fold"});
    metrics.push_back({prefix + ".ns_per_mac", 0.0, "ns/MAC"});
  }
  const std::vector<Metric> rest = {
      {"sim.simulated_cycles", 0.0, "cycles"},
      {"sim.pe_util_pct", 0.0, "%"},
      {"serve.submit_us_p50", 0.0, "us"},
      {"serve.submit_us_tail", 0.0, "us"},
      {"serve.drain_ms", 0.0, "ms"},
      {"serve.requests_per_s", 0.0, "1/s"},
      {"serve.pool_build_ms", 0.0, "ms"},
      {"serve.mean_batch", 0.0, "requests"},
      {"serve.rejected_pct", 0.0, "%"},
      {"serve.p99_latency_cycles", 0.0, "cycles"},
      {"wall.items_per_s", 0.0, "1/s"},
      {"wall.item_ms_p50", 0.0, "ms"},
      {"wall.item_ms_tail", 0.0, "ms"},
      {"trace.overhead_pct", 0.0, "%"},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());
  return metrics;
}

void Tracer::span(std::string name, const char* category,
                  Clock::time_point start, Clock::time_point end, int item) {
  if (!enabled_) {
    return;
  }
  spans_.push_back(Span{std::move(name), category, elapsed_ns(epoch_, start),
                        elapsed_ns(start, end), item});
}

void Tracer::write_json(const std::string& path) const {
  fuse::util::TraceSink sink;
  sink.process_name("perfbench");
  for (const Span& span : spans_) {
    sink.complete_event(
        span.name, span.category,
        static_cast<std::uint64_t>(span.start_ns / 1000),
        static_cast<std::uint64_t>(std::max<std::int64_t>(span.dur_ns / 1000,
                                                          1)),
        0,
        {fuse::util::trace_num("item", static_cast<std::uint64_t>(span.item)),
         fuse::util::trace_num("ns", static_cast<std::uint64_t>(span.dur_ns))});
  }
  sink.write_json_file(path);
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::uint64_t sampled_checksum(const float* data, std::int64_t count,
                               std::int64_t stride) {
  std::uint64_t sum = 0;
  std::uint64_t weighted = 0;
  for (std::int64_t i = 0; i < count; i += stride) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &data[i], sizeof(bits));
    sum += bits;
    weighted += static_cast<std::uint64_t>(bits) *
                static_cast<std::uint64_t>(i + 1);
  }
  return fnv_mix(fnv_mix(1469598103934665603ULL, sum), weighted);
}

std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace perfbench
