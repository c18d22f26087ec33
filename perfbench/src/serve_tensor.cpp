// Workload `serve_tensor`: one item is a burst — a fixed-length open-loop
// trace (serve::make_open_loop_trace, each burst starting where the last
// one ended) replayed into one reused tensor-mode ServeEngine, then
// drain(). The engine has 2 payload workers, 2 virtual arrays and
// max_batch 8, and serves two chain-executable tenants cut from the
// MobileNet-V1 and -V2 layer geometries (width 0.5, 128x128). Payloads run
// real batched tensors through the nn kernels from two workers at once.
// Load comes from the benchmark's single thread.
//
// Every burst replays the same seeded trace shifted in time, so its
// scheduling is identical: each timed burst must reproduce the first
// burst's stats (completed, shed, batches, p99 cycles) and response
// fingerprint, and shed requests fail it. Once, outside the timed region,
// every response checksum of a burst is recomputed by a standalone
// nn::conv2d chain over the pool's weights.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>

#include "harness.hpp"
#include "nets/zoo.hpp"
#include "nn/layer.hpp"
#include "nn/ops.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/model_pool.hpp"
#include "util/check.hpp"

namespace perfbench {
namespace {

namespace serve = fuse::serve;
using fuse::tensor::Shape;
using fuse::tensor::Tensor;

constexpr std::int64_t kBurst = 48;  // requests per item
constexpr std::int64_t kResolution = 128;
constexpr std::size_t kTenantLayers = 7;
// The arrival trace is the same at every seed, so every run schedules the
// same batches; the workload seed makes the weights and request inputs.
constexpr std::uint64_t kTraceSeed = 1;

/// The longest flat conv chain (at most kTenantLayers layers) at the head
/// of a width-0.5 zoo network: the tensor-mode executable part.
fuse::nets::NetworkModel tenant(fuse::nets::NetworkId id) {
  const fuse::nets::NetworkModel full =
      fuse::nets::build_network_scaled(id, 0.5, {}, kResolution);
  fuse::nets::NetworkModel cut;
  cut.name = full.name + "-head";
  for (const fuse::nn::LayerDesc& layer : full.layers) {
    const bool conv = layer_class(layer.kind) >= 0 &&
                      layer.kind != fuse::nn::OpKind::kFullyConnected;
    const bool chained =
        cut.layers.empty() || (cut.layers.back().out_c == layer.in_c &&
                               cut.layers.back().out_h == layer.in_h &&
                               cut.layers.back().out_w == layer.in_w);
    if (!conv || !chained || cut.layers.size() == kTenantLayers) {
      break;
    }
    cut.layers.push_back(layer);
  }
  FUSE_CHECK(serve::is_chain_executable(cut)) << cut.name;
  return cut;
}

/// Scheduling outcome of one burst, relative to its start, so that equal
/// bursts compare equal wherever they sit in virtual time.
struct BurstStats {
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t batches = 0;
  double p99_latency_cycles = 0.0;
  std::uint64_t fingerprint = 0;

  bool operator==(const BurstStats&) const = default;
};

class ServeTensor : public Workload {
 public:
  explicit ServeTensor(const Options& options)
      : perturb_(options.perturb_expected),
        pool_(fuse::systolic::square_array(64), {},
              fuse::sched::SchedMode::kPerLayer, options.seed) {
    const Clock::time_point start = Clock::now();
    for (const fuse::nets::NetworkId id :
         {fuse::nets::NetworkId::kMobileNetV1,
          fuse::nets::NetworkId::kMobileNetV2}) {
      serve::ShapeKey key;
      key.custom = pool_.register_custom(tenant(id));
      pool_.entry(key);
      pool_.weights(key);
      shapes_.push_back(serve::TraceShape{key, 0, 1});
    }
    pool_build_ms_ =
        static_cast<double>(elapsed_ns(start, Clock::now())) / 1e6;

    // Rate and window scale with the batch-1 service time: a mean batch
    // of a few requests on two arrays, far from the queue capacity.
    const std::uint64_t service = pool_.service_cycles(shapes_[0].key, 1);
    gap_ = service / 2;
    serve::ServeConfig config;
    config.mode = serve::ExecMode::kTensor;
    config.batch_window = 3 * service;
    config.max_batch = 8;
    config.num_arrays = 2;
    config.workers = 2;
    config.seed = options.seed;
    engine_ = std::make_unique<serve::ServeEngine>(config, &pool_);
    run_once(0);  // warm-up: worker threads, kernel pool, allocator
  }

  std::size_t items() const override { return 1; }

  bool run_item(std::size_t /*index*/,
                std::vector<std::int64_t>& /*unit_ns*/) override {
    const std::uint64_t start_cycle = next_start_;
    const std::vector<serve::TraceEntry> trace =
        serve::make_open_loop_trace(kBurst, gap_, shapes_, kTraceSeed,
                                    start_cycle);
    const std::uint64_t first_id = engine_->num_requests();
    for (const serve::TraceEntry& entry : trace) {
      const Clock::time_point start =
          tracer.enabled() ? Clock::now() : Clock::time_point{};
      engine_->submit(entry.key, entry.batch_hint, entry.arrival_cycle);
      if (tracer.enabled()) {
        const Clock::time_point end = Clock::now();
        submit_ns_.push_back(elapsed_ns(start, end));
        tracer.span("serve.submit", "serve", start, end, 0);
      }
    }
    const Clock::time_point drain_start =
        tracer.enabled() ? Clock::now() : Clock::time_point{};
    engine_->drain();
    if (tracer.enabled()) {
      const Clock::time_point end = Clock::now();
      drain_ms_.push_back(
          static_cast<double>(elapsed_ns(drain_start, end)) / 1e6);
      tracer.span("serve.drain", "serve", drain_start, end, 0);
    }
    const BurstStats stats = burst_stats(first_id, start_cycle);
    if (tracer.enabled()) {
      traced_completed_ += stats.completed;
    }
    if (!expected_) {
      expected_ = stats;
    }
    return stats.rejected == 0 && stats == *expected_;
  }

  std::size_t verify() override {
    const std::uint64_t first_id = engine_->num_requests();
    bool ok = run_once(0);
    std::size_t checked = 0;
    for (std::uint64_t id = first_id; id < engine_->num_requests(); ++id) {
      const serve::ResponseRecord record = engine_->response(id);
      if (record.status == serve::RequestStatus::kCompleted) {
        ok = ok && record.checksum == standalone_checksum(record);
        ++checked;
      }
    }
    std::printf("serve_tensor: mean batch %.3f, %llu shed, p99 %.0f cycles; "
                "%zu payload checksums recomputed standalone\n",
                static_cast<double>(expected_->completed) /
                    static_cast<double>(expected_->batches),
                static_cast<unsigned long long>(expected_->rejected),
                expected_->p99_latency_cycles, checked);
    if (perturb_) {
      expected_->fingerprint ^= 1;
    }
    return ok ? 0 : 1;
  }

  void layer_metrics(double seconds,
                     std::vector<Metric>& metrics) const override {
    std::vector<double> submit_us;
    for (const std::int64_t ns : submit_ns_) {
      submit_us.push_back(static_cast<double>(ns) / 1e3);
    }
    std::sort(submit_us.begin(), submit_us.end());
    const std::size_t n = submit_us.size();
    set_metric(metrics, "serve.submit_us_p50", median(submit_us));
    set_metric(metrics, "serve.submit_us_tail",
               n == 0 ? 0.0 : submit_us[n > 10 ? n - 11 : n - 1]);
    set_metric(metrics, "serve.drain_ms", median(drain_ms_));
    set_metric(metrics, "serve.requests_per_s",
               static_cast<double>(traced_completed_) / seconds);
    set_metric(metrics, "serve.pool_build_ms", pool_build_ms_);
    set_metric(metrics, "serve.mean_batch",
               static_cast<double>(expected_->completed) /
                   static_cast<double>(expected_->batches));
    set_metric(metrics, "serve.rejected_pct",
               100.0 * static_cast<double>(expected_->rejected) /
                   static_cast<double>(kBurst));
    set_metric(metrics, "serve.p99_latency_cycles",
               expected_->p99_latency_cycles);
  }

 private:
  BurstStats burst_stats(std::uint64_t first_id, std::uint64_t start_cycle) {
    BurstStats stats;
    std::uint64_t hash = 1469598103934665603ULL;
    std::uint64_t first_batch = ~0ULL;
    int first_array = -1;
    std::uint64_t last_completion = start_cycle;
    std::vector<serve::ResponseRecord> records;
    for (std::uint64_t id = first_id; id < engine_->num_requests(); ++id) {
      records.push_back(engine_->response(id));
      const serve::ResponseRecord& r = records.back();
      if (r.status == serve::RequestStatus::kCompleted &&
          r.batch_id < first_batch) {
        first_batch = r.batch_id;
        first_array = r.array_index;
      }
    }
    std::set<std::uint64_t> batches;
    std::vector<std::uint64_t> latencies;
    for (const serve::ResponseRecord& r : records) {
      const bool done = r.status == serve::RequestStatus::kCompleted;
      stats.completed += done ? 1 : 0;
      stats.rejected += r.status == serve::RequestStatus::kRejected ? 1 : 0;
      for (const std::uint64_t v :
           {r.id - first_id, static_cast<std::uint64_t>(r.status),
            r.arrival_cycle - start_cycle,
            done ? r.dispatch_cycle - start_cycle : 0,
            done ? r.start_cycle - start_cycle : 0,
            done ? r.completion_cycle - start_cycle : 0,
            done ? r.batch_id - first_batch : 0,
            static_cast<std::uint64_t>(r.batch_size),
            // Both arrays are idle when a burst starts; the engine picks
            // the one that went idle first, so only the labelling relative
            // to the burst's first batch repeats.
            done ? static_cast<std::uint64_t>(r.array_index ^ first_array)
                 : 0}) {
        hash = fnv_mix(hash, v);
      }
      if (done) {
        batches.insert(r.batch_id);
        latencies.push_back(r.latency_cycles());
        last_completion = std::max(last_completion, r.completion_cycle);
      }
    }
    std::sort(latencies.begin(), latencies.end());
    stats.batches = batches.size();
    stats.p99_latency_cycles =
        latencies.empty() ? 0.0 : serve::percentile_sorted(latencies, 0.99);
    stats.fingerprint = hash;
    next_start_ = std::max(last_completion, engine_->now()) + 1;
    return stats;
  }

  /// The request's output recomputed alone through nn::conv2d.
  std::uint64_t standalone_checksum(const serve::ResponseRecord& record) {
    const serve::ModelEntry& entry = pool_.entry(record.key);
    const std::vector<Tensor>& weights = pool_.weights(record.key);
    Tensor activation =
        serve::request_input(entry, engine_->config().seed, record.id);
    for (std::size_t l = 0; l < entry.model.layers.size(); ++l) {
      const fuse::nn::LayerDesc& layer = entry.model.layers[l];
      fuse::nn::Conv2dParams params;
      params.stride_h = layer.stride_h;
      params.stride_w = layer.stride_w;
      params.pad_h = layer.pad_h;
      params.pad_w = layer.pad_w;
      params.groups = layer.groups;
      activation = fuse::nn::conv2d(activation, weights[l], nullptr, params);
    }
    return serve::tensor_checksum(activation);
  }

  bool perturb_;
  serve::ModelPool pool_;  // outlives engine_ (declared before it)
  std::vector<serve::TraceShape> shapes_;
  std::uint64_t gap_ = 0;
  double pool_build_ms_ = 0.0;
  std::unique_ptr<serve::ServeEngine> engine_;
  std::uint64_t next_start_ = 0;
  std::optional<BurstStats> expected_;
  std::vector<std::int64_t> submit_ns_;
  std::vector<double> drain_ms_;
  std::uint64_t traced_completed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_tensor(const Options& options) {
  return std::make_unique<ServeTensor>(options);
}

}  // namespace perfbench
