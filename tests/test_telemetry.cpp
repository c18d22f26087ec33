// Telemetry layer: concurrent metric correctness (run under TSan by
// tools/check.sh), span nesting, JSON validity of both exporters, and a
// golden check that the sched.* counters reproduce the MappingPlan-derived
// values for a real MobileNet-V2 layer.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

#include "nets/zoo.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "sched/latency.hpp"
#include "systolic/config.hpp"
#include "systolic/mapping.hpp"
#include "systolic/trace.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"
#include "util/trace_sink.hpp"

namespace fuse {
namespace {

// --- minimal JSON validator/reader (tests only) ------------------------------
// Enough of RFC 8259 to parse everything the sinks emit: objects, arrays,
// strings with escapes, numbers, literals. parse() returns true iff the
// whole input is one valid JSON value.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  bool parse() {
    skip_ws();
    return value() && (skip_ws(), pos_ == text_.size());
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') return ++pos_, true;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character: invalid JSON
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start && text_[start] != '.' &&
           std::isdigit(static_cast<unsigned char>(text_[pos_ - 1]));
  }

  bool literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

bool valid_json(const std::string& text) {
  return JsonCursor(text).parse();
}

/// The numeric field `key` of the first event named `name`, or npos-like
/// UINT64_MAX when absent. Good enough for the sink's stable field order.
std::uint64_t event_field(const std::string& json, const std::string& name,
                          const std::string& key) {
  const std::string anchor = "\"name\":\"" + name + "\"";
  const std::size_t at = json.find(anchor);
  if (at == std::string::npos) return UINT64_MAX;
  // Fields of one event object: search forward from the name, stop at '}'.
  const std::size_t end = json.find('}', at);
  const std::string field = "\"" + key + "\":";
  const std::size_t f = json.find(field, at);
  if (f == std::string::npos || f > end) return UINT64_MAX;
  return std::strtoull(json.c_str() + f + field.size(), nullptr, 10);
}

TEST(Telemetry, CounterConcurrentAddsAreLossless) {
  if (!util::telemetry_enabled()) GTEST_SKIP() << "FUSE_TELEMETRY off";
  util::Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAdds = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kAdds; ++i) {
        counter.add();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kAdds);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Telemetry, GaugeHighWaterMarkUnderContention) {
  if (!util::telemetry_enabled()) GTEST_SKIP() << "FUSE_TELEMETRY off";
  util::Gauge gauge;
  constexpr int kThreads = 4;
  constexpr int kRounds = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kRounds; ++i) {
        gauge.add(1);
        gauge.add(-1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_GE(gauge.max(), 1);
  EXPECT_LE(gauge.max(), kThreads);
}

TEST(Telemetry, HistogramBucketsArePowersOfTwo) {
  if (!util::telemetry_enabled()) GTEST_SKIP() << "FUSE_TELEMETRY off";
  using util::Histogram;
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 3);
  EXPECT_EQ(Histogram::bucket_index(1023), 10);
  EXPECT_EQ(Histogram::bucket_index(1024), 11);
  // The top bucket is open-ended: huge values clamp instead of overflow.
  EXPECT_EQ(Histogram::bucket_index(UINT64_MAX), Histogram::kBuckets - 1);
  for (int bucket = 1; bucket < Histogram::kBuckets - 1; ++bucket) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower_bound(bucket)),
              bucket)
        << "bucket " << bucket;
  }
}

TEST(Telemetry, HistogramConcurrentObserveConserves) {
  if (!util::telemetry_enabled()) GTEST_SKIP() << "FUSE_TELEMETRY off";
  util::Histogram hist;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        hist.observe((i + static_cast<std::uint64_t>(t)) % 100);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (int b = 0; b < util::Histogram::kBuckets; ++b) {
    bucket_total += hist.bucket_count(b);
  }
  EXPECT_EQ(bucket_total, hist.count());
}

TEST(Telemetry, RegistryReturnsStableReferences) {
  if (!util::telemetry_enabled()) GTEST_SKIP() << "FUSE_TELEMETRY off";
  util::MetricsRegistry registry;
  util::Counter& a = registry.counter("test.a");
  util::Counter& a2 = registry.counter("test.a");
  util::Counter& b = registry.counter("test.b");
  EXPECT_EQ(&a, &a2);
  EXPECT_NE(&a, &b);
  a.add(5);
  EXPECT_EQ(a2.value(), 5u);
  registry.reset();
  EXPECT_EQ(a.value(), 0u);
}

TEST(Telemetry, RegistryJsonParsesBack) {
  util::MetricsRegistry registry;
  registry.counter("test.counter").add(42);
  registry.gauge("test.gauge").add(7);
  registry.histogram("test.hist").observe(100);
  registry.histogram("test.hist").observe(0);
  std::ostringstream out;
  registry.write_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(valid_json(json)) << json;
  if (util::telemetry_enabled()) {
    EXPECT_NE(json.find("\"test.counter\": 42"), std::string::npos) << json;
  }
}

TEST(Telemetry, SpanWithoutSinkIsInactive) {
  ASSERT_EQ(util::global_trace_sink(), nullptr);
  util::ScopedSpan span("test.orphan");
  EXPECT_FALSE(span.active());
  span.annotate("ignored", std::uint64_t{1});  // must be a safe no-op
}

TEST(Telemetry, NestedSpansStayContained) {
  if (!util::telemetry_enabled()) GTEST_SKIP() << "FUSE_TELEMETRY off";
  util::TraceSink sink;
  util::set_global_trace_sink(&sink);
  {
    util::ScopedSpan outer("test.outer");
    EXPECT_TRUE(outer.active());
    outer.annotate("label", std::string("out"));
    {
      util::ScopedSpan inner("test.inner");
      inner.annotate("depth", std::uint64_t{2});
    }
  }
  util::set_global_trace_sink(nullptr);
  EXPECT_EQ(sink.event_count(), 2u);
  std::ostringstream out;
  sink.write_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(valid_json(json)) << json;
  const std::uint64_t outer_ts = event_field(json, "test.outer", "ts");
  const std::uint64_t outer_dur = event_field(json, "test.outer", "dur");
  const std::uint64_t inner_ts = event_field(json, "test.inner", "ts");
  const std::uint64_t inner_dur = event_field(json, "test.inner", "dur");
  ASSERT_NE(outer_ts, UINT64_MAX);
  ASSERT_NE(inner_ts, UINT64_MAX);
  EXPECT_LE(outer_ts, inner_ts);
  EXPECT_GE(outer_ts + outer_dur, inner_ts + inner_dur);
}

TEST(Telemetry, FoldTraceJsonMatchesTraceTotals) {
  const auto cfg = systolic::square_array(8);
  const systolic::MemoryConfig mem;
  const systolic::FoldTrace trace =
      systolic::matmul_trace(20, 16, 20, cfg, mem);
  util::TraceSink sink;
  const std::uint64_t cursor =
      append_fold_trace_events(sink, trace, "op", /*cycle_offset=*/100);
  EXPECT_EQ(cursor, 100 + trace.total_cycles);
  // One span per fold, one SRAM sample per fold, one closing zero sample.
  EXPECT_EQ(sink.event_count(), 2 * trace.folds.size() + 1);
  std::ostringstream out;
  sink.write_json(out);
  EXPECT_TRUE(valid_json(out.str())) << out.str();
}

// The golden acceptance check: lowering one real MobileNet-V2 depthwise
// layer must move the sched.* counters by exactly the MappingPlan-derived
// amounts (MACs, folds, busy and total PE-cycles).
TEST(Telemetry, SchedCountersMatchMappingPlanGolden) {
  if (!util::telemetry_enabled()) GTEST_SKIP() << "FUSE_TELEMETRY off";
  const nets::NetworkModel model =
      nets::build_network(nets::NetworkId::kMobileNetV2);
  const nn::LayerDesc* depthwise = nullptr;
  for (const nn::LayerDesc& layer : model.layers) {
    if (layer.kind == nn::OpKind::kDepthwiseConv) {
      depthwise = &layer;
      break;
    }
  }
  ASSERT_NE(depthwise, nullptr) << "MobileNet-V2 has no depthwise layer?";

  const auto cfg = systolic::square_array(64);
  const systolic::LatencyEstimate plan_est =
      systolic::lower(*depthwise, cfg).total_latency();

  util::MetricsRegistry& reg = util::metrics();
  const std::uint64_t layers0 = reg.counter("sched.layers").value();
  const std::uint64_t macs0 = reg.counter("sched.macs").value();
  const std::uint64_t folds0 = reg.counter("sched.folds").value();
  const std::uint64_t busy0 = reg.counter("sched.pe_cycles_busy").value();
  const std::uint64_t total0 = reg.counter("sched.pe_cycles_total").value();

  const systolic::LatencyEstimate est = sched::layer_latency(*depthwise, cfg);
  EXPECT_EQ(est.cycles, plan_est.cycles);

  EXPECT_EQ(reg.counter("sched.layers").value() - layers0, 1u);
  EXPECT_EQ(reg.counter("sched.macs").value() - macs0, plan_est.mac_ops);
  EXPECT_EQ(reg.counter("sched.folds").value() - folds0, plan_est.folds);
  EXPECT_EQ(reg.counter("sched.pe_cycles_busy").value() - busy0,
            plan_est.mac_ops);
  EXPECT_EQ(reg.counter("sched.pe_cycles_total").value() - total0,
            plan_est.cycles * static_cast<std::uint64_t>(cfg.pe_count()));
}

// The fast kernels must leave an exact telemetry trail: the ISA dispatch
// counters pin to the FORCED ISA (never the other one), each forward
// lands on the kernel its geometry selects, and packing accounts its
// bytes exactly:
//   * a 4x4 matmul packs one kNr=8 panel of k=4 floats: 4 * 8 * 4 = 128;
//   * a [1,4,3,3] 1x1 conv takes the pointwise route and packs its nine
//     positions as two 8-wide panels of k=4 floats: 2 * 4 * 8 * 4 = 256;
//   * a stride-2 1x1 conv stays on the im2col route;
//   * linear reads its weight rows in place and packs nothing.
TEST(Telemetry, KernelCountersPinnedToForcedIsa) {
  if (!util::telemetry_enabled()) GTEST_SKIP() << "FUSE_TELEMETRY off";
  const nn::KernelBackend saved_backend = nn::kernel_backend();
  const nn::KernelIsa saved_isa = nn::kernel_isa();
  nn::set_kernel_backend(nn::KernelBackend::kFast);

  util::Rng rng(7);
  const auto random = [&rng](tensor::Shape shape) {
    tensor::Tensor t(std::move(shape));
    t.fill_uniform(rng, -1.0F, 1.0F);
    return t;
  };
  const tensor::Tensor a = random(tensor::Shape{4, 4});
  const tensor::Tensor b = random(tensor::Shape{4, 4});
  const tensor::Tensor image = random(tensor::Shape{1, 4, 3, 3});
  const tensor::Tensor filters = random(tensor::Shape{5, 4, 1, 1});
  const tensor::Tensor features = random(tensor::Shape{2, 13});
  const tensor::Tensor fc_weight = random(tensor::Shape{9, 13});
  nn::Conv2dParams stride2;
  stride2.stride_h = 2;
  stride2.stride_w = 2;

  util::MetricsRegistry& reg = util::metrics();
  util::Counter& avx2_count = reg.counter("kernels.dispatch.avx2");
  util::Counter& scalar_count = reg.counter("kernels.dispatch.scalar");
  util::Counter& pack_bytes = reg.counter("kernels.pack_bytes");
  util::Counter& pointwise_count = reg.counter("kernels.fast.pointwise");
  util::Counter& conv2d_count = reg.counter("kernels.fast.conv2d");
  constexpr std::uint64_t kPanelBytes = 4 * 8 * sizeof(float);  // 128

  const auto run_leg = [&](nn::KernelIsa isa) {
    nn::set_kernel_isa(isa);
    const char* name = nn::kernel_isa_name(isa);
    const std::uint64_t avx2_0 = avx2_count.value();
    const std::uint64_t scalar_0 = scalar_count.value();
    std::uint64_t pack_0 = pack_bytes.value();
    (void)nn::matmul(a, b);
    const bool is_avx2 = isa == nn::KernelIsa::kAvx2;
    EXPECT_EQ(avx2_count.value() - avx2_0, is_avx2 ? 1u : 0u) << name;
    EXPECT_EQ(scalar_count.value() - scalar_0, is_avx2 ? 0u : 1u) << name;
    EXPECT_EQ(pack_bytes.value() - pack_0, kPanelBytes) << name;

    pack_0 = pack_bytes.value();
    std::uint64_t pointwise_0 = pointwise_count.value();
    std::uint64_t conv2d_0 = conv2d_count.value();
    (void)nn::conv2d(image, filters, nullptr, nn::Conv2dParams{});
    EXPECT_EQ(pointwise_count.value() - pointwise_0, 1u) << name;
    EXPECT_EQ(conv2d_count.value() - conv2d_0, 0u) << name;
    EXPECT_EQ(pack_bytes.value() - pack_0, 2 * kPanelBytes) << name;

    pointwise_0 = pointwise_count.value();
    conv2d_0 = conv2d_count.value();
    (void)nn::conv2d(image, filters, nullptr, stride2);
    EXPECT_EQ(pointwise_count.value() - pointwise_0, 0u) << name;
    EXPECT_EQ(conv2d_count.value() - conv2d_0, 1u) << name;

    pack_0 = pack_bytes.value();
    (void)nn::linear(features, fc_weight, nullptr);
    EXPECT_EQ(pack_bytes.value() - pack_0, 0u) << name;
  };

  run_leg(nn::KernelIsa::kScalar);
  if (nn::kernel_isa_available(nn::KernelIsa::kAvx2)) {
    run_leg(nn::KernelIsa::kAvx2);
  }

  nn::set_kernel_isa(saved_isa);
  nn::set_kernel_backend(saved_backend);
}

TEST(Telemetry, HistogramObserveAtPowerOfTwoBoundaries) {
  if (!util::telemetry_enabled()) GTEST_SKIP() << "FUSE_TELEMETRY off";
  using util::Histogram;
  Histogram h;
  // A value exactly at a bucket's lower bound lands in THAT bucket
  // (buckets are [2^(i-1), 2^i), half-open on the right).
  for (int exp = 0; exp < 20; ++exp) {
    h.observe(1ULL << exp);
  }
  for (int exp = 0; exp < 20; ++exp) {
    EXPECT_EQ(h.bucket_count(exp + 1), 1u) << "2^" << exp;
  }
  // One below the boundary stays in the previous bucket.
  Histogram below;
  below.observe((1ULL << 10) - 1);  // 1023
  EXPECT_EQ(below.bucket_count(10), 1u);
  EXPECT_EQ(below.bucket_count(11), 0u);
  below.observe(1ULL << 10);  // 1024 crosses
  EXPECT_EQ(below.bucket_count(11), 1u);
  EXPECT_EQ(below.count(), 2u);
  EXPECT_EQ(below.sum(), 1023u + 1024u);
}

TEST(Telemetry, PercentileZeroAndOneSample) {
  if (!util::telemetry_enabled()) GTEST_SKIP() << "FUSE_TELEMETRY off";
  using util::ProfileCollector;
  const std::vector<std::uint64_t> empty;
  EXPECT_EQ(ProfileCollector::percentile(empty, 0.50), 0.0);
  EXPECT_EQ(ProfileCollector::percentile(empty, 0.99), 0.0);
  const std::vector<std::uint64_t> one{42};
  EXPECT_EQ(ProfileCollector::percentile(one, 0.0), 42.0);
  EXPECT_EQ(ProfileCollector::percentile(one, 0.50), 42.0);
  EXPECT_EQ(ProfileCollector::percentile(one, 1.0), 42.0);
}

TEST(Telemetry, PercentileLinearInterpolation) {
  if (!util::telemetry_enabled()) GTEST_SKIP() << "FUSE_TELEMETRY off";
  using util::ProfileCollector;
  const std::vector<std::uint64_t> two{10, 20};
  EXPECT_DOUBLE_EQ(ProfileCollector::percentile(two, 0.50), 15.0);
  EXPECT_DOUBLE_EQ(ProfileCollector::percentile(two, 0.90), 19.0);
  EXPECT_DOUBLE_EQ(ProfileCollector::percentile(two, 1.0), 20.0);
  const std::vector<std::uint64_t> five{0, 10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(ProfileCollector::percentile(five, 0.50), 20.0);
  EXPECT_DOUBLE_EQ(ProfileCollector::percentile(five, 0.25), 10.0);
  // rank 0.9 * 4 = 3.6 -> 30 + 0.6 * 10
  EXPECT_DOUBLE_EQ(ProfileCollector::percentile(five, 0.90), 36.0);
}

TEST(Telemetry, ProfileCollectorSelfVsChildTime) {
  if (!util::telemetry_enabled()) GTEST_SKIP() << "FUSE_TELEMETRY off";
  util::ProfileCollector collector;
  util::set_global_profile_collector(&collector);
  {
    util::ScopedSpan outer("test.prof.outer");
    EXPECT_TRUE(outer.active());
    { util::ScopedSpan inner("test.prof.inner"); }
    { util::ScopedSpan inner("test.prof.inner"); }
  }
  util::set_global_profile_collector(nullptr);
  { util::ScopedSpan orphan("test.prof.after"); }  // not recorded

  const auto timers = collector.snapshot();
  ASSERT_EQ(timers.size(), 2u);
  EXPECT_EQ(timers[0].name, "test.prof.inner");
  EXPECT_EQ(timers[0].count, 2u);
  EXPECT_EQ(timers[1].name, "test.prof.outer");
  EXPECT_EQ(timers[1].count, 1u);
  // The parent's self time excludes the nested spans' wall time.
  EXPECT_LE(timers[1].self_us,
            timers[1].total_us);
  // Leaf spans have self == total.
  EXPECT_EQ(timers[0].self_us, timers[0].total_us);
  EXPECT_LE(timers[0].min_us, timers[0].max_us);
  EXPECT_GE(timers[0].p99_us, timers[0].p50_us);

  std::ostringstream out;
  collector.write_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"test.prof.outer\""), std::string::npos);
  EXPECT_EQ(json.find("\"test.prof.after\""), std::string::npos);
}

TEST(Telemetry, TraceSinkJsonStringEscaping) {
  if (!util::telemetry_enabled()) GTEST_SKIP() << "FUSE_TELEMETRY off";
  EXPECT_EQ(util::json_escape("plain"), "plain");
  EXPECT_EQ(util::json_escape("quote\"backslash\\"),
            "quote\\\"backslash\\\\");
  EXPECT_EQ(util::json_escape("tab\tnewline\ncr\r"),
            "tab\\tnewline\\ncr\\r");
  EXPECT_EQ(util::json_escape(std::string("nul\0byte", 8)),
            "nul\\u0000byte");
  EXPECT_EQ(util::json_escape("\x01\x1f"), "\\u0001\\u001f");

  // End-to-end: a span annotation with every escape class survives the
  // sink as parseable JSON containing the escaped form.
  util::TraceSink sink;
  util::set_global_trace_sink(&sink);
  {
    util::ScopedSpan span("test.escape");
    span.annotate("payload", std::string("a\"b\\c\nd"));
  }
  util::set_global_trace_sink(nullptr);
  std::ostringstream out;
  sink.write_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos);
}

TEST(Strings, FormatBytesUsesBinaryUnits) {
  EXPECT_EQ(util::format_bytes(0), "0 B");
  EXPECT_EQ(util::format_bytes(512), "512 B");
  EXPECT_EQ(util::format_bytes(1023), "1023 B");
  EXPECT_EQ(util::format_bytes(1024), "1.0 KiB");
  EXPECT_EQ(util::format_bytes(1536), "1.5 KiB");
  EXPECT_EQ(util::format_bytes(1024ull * 1024), "1.0 MiB");
  EXPECT_EQ(util::format_bytes(3ull * 1024 * 1024 * 1024 / 2), "1.5 GiB");
}

TEST(Strings, FormatCountIsExactBelowTenThousand) {
  EXPECT_EQ(util::format_count(0), "0");
  EXPECT_EQ(util::format_count(9999), "9999");
  EXPECT_EQ(util::format_count(10000), "10.0k");
  EXPECT_EQ(util::format_count(12345), "12.3k");
  EXPECT_EQ(util::format_count(4600000), "4.6M");
  EXPECT_EQ(util::format_count(7800000000ull), "7.8B");
}

}  // namespace
}  // namespace fuse
