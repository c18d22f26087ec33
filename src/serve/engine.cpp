#include "serve/engine.hpp"

#include <algorithm>
#include <cstring>

#include "nn/ops.hpp"
#include "sched/execute.hpp"
#include "util/check.hpp"
#include "util/telemetry.hpp"

namespace fuse::serve {

using tensor::Shape;
using tensor::Tensor;

namespace {

// serve.* metrics (docs/observability.md): request flow counters, the
// in-system level, and the cycle-domain batch/latency distributions.
util::Counter& m_submitted() {
  static util::Counter& counter = util::metrics().counter("serve.submitted");
  return counter;
}
util::Counter& m_admitted() {
  static util::Counter& counter = util::metrics().counter("serve.admitted");
  return counter;
}
util::Counter& m_rejected() {
  static util::Counter& counter = util::metrics().counter("serve.rejected");
  return counter;
}
util::Counter& m_completed() {
  static util::Counter& counter = util::metrics().counter("serve.completed");
  return counter;
}
util::Counter& m_batches() {
  static util::Counter& counter = util::metrics().counter("serve.batches");
  return counter;
}
util::Gauge& m_in_system() {
  static util::Gauge& gauge = util::metrics().gauge("serve.in_system");
  return gauge;
}
util::Histogram& m_batch_size() {
  static util::Histogram& histogram =
      util::metrics().histogram("serve.batch_size");
  return histogram;
}
util::Histogram& m_latency() {
  static util::Histogram& histogram =
      util::metrics().histogram("serve.latency_cycles");
  return histogram;
}
util::Histogram& m_batch_wait() {
  static util::Histogram& histogram =
      util::metrics().histogram("serve.batch_wait_cycles");
  return histogram;
}

}  // namespace

void ServeConfig::validate() const {
  FUSE_CHECK(max_batch >= 1) << "max_batch must be >= 1, got " << max_batch;
  FUSE_CHECK(queue_capacity >= 1)
      << "queue_capacity must be >= 1, got " << queue_capacity;
  FUSE_CHECK(num_arrays >= 1)
      << "num_arrays must be >= 1, got " << num_arrays;
  FUSE_CHECK(workers >= 0) << "workers must be >= 0, got " << workers;
  FUSE_CHECK(nn::kernel_isa_available(kernels.isa))
      << "kernel ISA " << nn::kernel_isa_name(kernels.isa) << " unavailable";
}

double percentile_sorted(const std::vector<std::uint64_t>& sorted,
                         double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  FUSE_CHECK(q >= 0.0 && q <= 1.0) << "percentile q out of [0, 1]: " << q;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) +
         frac * (static_cast<double>(sorted[hi]) -
                 static_cast<double>(sorted[lo]));
}

ServeEngine::ServeEngine(const ServeConfig& config, ModelPool* pool)
    : config_(config), pool_(pool), worker_pool_(config.workers) {
  FUSE_CHECK(pool_ != nullptr) << "ServeEngine needs a ModelPool";
  config_.validate();
  array_free_.assign(static_cast<std::size_t>(config_.num_arrays), 0);
}

ServeEngine::~ServeEngine() {
  // Payload tasks capture `this`; never destroy the engine under them.
  wait_for_payloads();
}

int ServeEngine::effective_cap(const OpenBatch& batch) const {
  int cap = config_.max_batch;
  for (const Member& member : batch.members) {
    if (member.hint > 0) {
      cap = std::min(cap, member.hint);
    }
  }
  return cap;
}

std::uint64_t ServeEngine::submit(const ShapeKey& key, int batch_hint,
                                  std::uint64_t arrival_cycle) {
  std::lock_guard<std::mutex> lock(mutex_);
  FUSE_CHECK(arrival_cycle >= last_arrival_)
      << "arrivals must be nondecreasing: got " << arrival_cycle
      << " after " << last_arrival_;
  // A batch's deadline is arrival + window; it must stay a real event
  // time, neither wrapped nor the kNoEvent sentinel.
  FUSE_CHECK(config_.batch_window < kNoEvent - arrival_cycle)
      << "batch window " << config_.batch_window << " from arrival "
      << arrival_cycle << " puts the deadline past the event clock";
  last_arrival_ = arrival_cycle;
  advance_locked(arrival_cycle);

  if (config_.mode != ExecMode::kCycle) {
    FUSE_CHECK(pool_->entry(key).chain_executable)
        << shape_key_name(key) << " cannot serve in "
        << exec_mode_name(config_.mode)
        << " mode: the model is not chain-executable (cycle mode serves "
           "any zoo shape)";
  }

  const std::uint64_t id = responses_.size();
  responses_.push_back(ResponseRecord{});
  ResponseRecord& record = responses_.back();
  record.id = id;
  record.key = key;
  record.batch_hint = batch_hint;
  record.arrival_cycle = arrival_cycle;
  ++submitted_;
  m_submitted().add();

  if (in_system_ >= static_cast<std::uint64_t>(config_.queue_capacity)) {
    record.status = RequestStatus::kRejected;
    ++rejected_;
    m_rejected().add();
    return id;
  }

  ++in_system_;
  ++admitted_;
  m_admitted().add();
  m_in_system().add(1);

  OpenBatch& batch = open_batches_[key];
  if (batch.members.empty()) {
    batch.open_cycle = arrival_cycle;
    batch.deadline = arrival_cycle + config_.batch_window;
  }
  batch.members.push_back(Member{id, batch_hint});
  if (config_.batch_window == 0 ||
      static_cast<int>(batch.members.size()) >= effective_cap(batch)) {
    dispatch_batch_locked(key, arrival_cycle);
  }
  return id;
}

std::uint64_t ServeEngine::next_deadline_locked(
    const ShapeKey** key_out) const {
  // Deterministic min over the open batches: deadline, then the id of the
  // batch's first member (unique) — independent of map iteration order.
  std::uint64_t best = kNoEvent;
  std::uint64_t best_first = 0;
  const ShapeKey* best_key = nullptr;
  for (const auto& [key, batch] : open_batches_) {
    const std::uint64_t first = batch.members.front().id;
    if (batch.deadline < best ||
        (batch.deadline == best && first < best_first)) {
      best = batch.deadline;
      best_first = first;
      best_key = &key;
    }
  }
  if (key_out != nullptr) {
    *key_out = best_key;
  }
  return best;
}

void ServeEngine::advance_locked(std::uint64_t cycle) {
  while (true) {
    const ShapeKey* due_key = nullptr;
    const std::uint64_t deadline = next_deadline_locked(&due_key);
    const std::uint64_t completion =
        in_flight_.empty() ? kNoEvent : in_flight_.top().first;
    const std::uint64_t event = std::min(deadline, completion);
    if (event == kNoEvent || event > cycle) {
      break;
    }
    // Retirements first at ties: a freed slot is visible to the admission
    // check that runs right after this advance.
    if (completion <= deadline) {
      retire_one_locked();
    } else {
      dispatch_batch_locked(*due_key, deadline);
    }
  }
  now_ = std::max(now_, cycle);
}

void ServeEngine::dispatch_batch_locked(ShapeKey key,
                                        std::uint64_t close_cycle) {
  // `key` by value: callers pass a reference into open_batches_ and the
  // erase below would dangle it.
  const auto it = open_batches_.find(key);
  FUSE_CHECK(it != open_batches_.end()) << "dispatch of a vanished batch";
  OpenBatch batch = std::move(it->second);
  open_batches_.erase(it);

  const int size = static_cast<int>(batch.members.size());
  const std::uint64_t service =
      pool_->service_cycles(key, static_cast<std::int64_t>(size));

  // Place on the array that frees first; ties go to the lowest index.
  std::size_t array = 0;
  for (std::size_t i = 1; i < array_free_.size(); ++i) {
    if (array_free_[i] < array_free_[array]) {
      array = i;
    }
  }
  const std::uint64_t start = std::max(close_cycle, array_free_[array]);
  const std::uint64_t completion = start + service;
  array_free_[array] = completion;

  const std::uint64_t batch_id = batch_seq_++;
  for (const Member& member : batch.members) {
    ResponseRecord& record = responses_[member.id];
    record.status = RequestStatus::kDispatched;
    record.dispatch_cycle = close_cycle;
    record.start_cycle = start;
    record.completion_cycle = completion;
    record.batch_id = batch_id;
    record.batch_size = size;
    record.array_index = static_cast<int>(array);
    in_flight_.emplace(completion, member.id);
  }
  batch_members_total_ += static_cast<std::uint64_t>(size);
  m_batches().add();
  m_batch_size().observe(static_cast<std::uint64_t>(size));
  m_batch_wait().observe(close_cycle - batch.open_cycle);
  now_ = std::max(now_, close_cycle);

  if (config_.mode != ExecMode::kCycle) {
    tasks_.push_back(BatchTask{key, {}, {}});
    BatchTask* task = &tasks_.back();
    task->ids.reserve(batch.members.size());
    for (const Member& member : batch.members) {
      task->ids.push_back(member.id);
    }
    task->checksums.assign(task->ids.size(), 0);
    ++launched_;
    worker_pool_.submit([this, task] {
      util::ScopedSpan span("serve.payload", "serve");
      run_payload(task);
      {
        // Notify under the lock: a drain()/destructor waiter may destroy
        // the condition variable as soon as it observes the count, which
        // must happen-after the broadcast completes.
        std::lock_guard<std::mutex> lock(done_mutex_);
        ++finished_;
        done_cv_.notify_all();
      }
    });
  }
}

void ServeEngine::retire_one_locked() {
  const auto [completion, id] = in_flight_.top();
  in_flight_.pop();
  ResponseRecord& record = responses_[id];
  if (record.status == RequestStatus::kDispatched) {
    record.status = RequestStatus::kCompleted;
    ++completed_;
    m_completed().add();
    m_latency().observe(record.latency_cycles());
  }
  --in_system_;
  m_in_system().add(-1);
  now_ = std::max(now_, completion);
}

void ServeEngine::advance_to(std::uint64_t cycle) {
  std::lock_guard<std::mutex> lock(mutex_);
  FUSE_CHECK(cycle >= now_) << "advance_to cannot rewind virtual time ("
                            << cycle << " < " << now_ << ")";
  advance_locked(cycle);
}

std::uint64_t ServeEngine::next_deadline() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_deadline_locked(nullptr);
}

std::uint64_t ServeEngine::now() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return now_;
}

void ServeEngine::drain() {
  util::ScopedSpan span("serve.drain", "serve");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Run the event loop dry: every remaining deadline is >= now_ (older
    // ones were dispatched by earlier advances), so this closes open
    // batches at their promised windows and retires all completions.
    while (true) {
      const ShapeKey* due_key = nullptr;
      const std::uint64_t deadline = next_deadline_locked(&due_key);
      const std::uint64_t completion =
          in_flight_.empty() ? kNoEvent : in_flight_.top().first;
      if (deadline == kNoEvent && completion == kNoEvent) {
        break;
      }
      if (completion <= deadline) {
        retire_one_locked();
      } else {
        dispatch_batch_locked(*due_key, deadline);
      }
    }
    FUSE_CHECK(in_system_ == 0) << "drain left requests in the system";
  }
  wait_for_payloads();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const BatchTask& task : tasks_) {
    for (std::size_t i = 0; i < task.ids.size(); ++i) {
      responses_[task.ids[i]].checksum = task.checksums[i];
    }
  }
  tasks_.clear();
}

void ServeEngine::wait_for_payloads() {
  std::unique_lock<std::mutex> lock(done_mutex_);
  done_cv_.wait(lock, [this] { return finished_ == launched_; });
}

void ServeEngine::run_payload(BatchTask* task) {
  const ModelEntry& entry = pool_->entry(task->key);
  const std::vector<Tensor>& weights = pool_->weights(task->key);
  const std::int64_t batch = static_cast<std::int64_t>(task->ids.size());
  const nn::LayerDesc& first = entry.model.layers.front();

  if (config_.mode == ExecMode::kSimulate) {
    // One PE-grid simulation per member.
    for (std::size_t member = 0; member < task->ids.size(); ++member) {
      const Tensor input =
          request_input(entry, config_.seed, task->ids[member]);
      const sched::NetworkExecution exec = sched::execute_network_on_array(
          entry.model, weights, input, entry.plan, pool_->array());
      task->checksums[member] = tensor_checksum(exec.output);
    }
    return;
  }

  // Tensor mode: one batched pass on config_.kernels. Row r of every
  // intermediate is bit-identical to request r's standalone run (fixed
  // accumulation order, batch-independent). The checksums equal simulate
  // mode's only where both add the same double products in one order, as
  // the scalar kernels do on test_serve's small_chain; AVX2 ones differ.
  Tensor activation(Shape{batch, first.in_c, first.in_h, first.in_w});
  const std::int64_t row = first.in_c * first.in_h * first.in_w;
  for (std::int64_t i = 0; i < batch; ++i) {
    const Tensor one = request_input(
        entry, config_.seed, task->ids[static_cast<std::size_t>(i)]);
    std::memcpy(activation.data() + i * row, one.data(),
                static_cast<std::size_t>(row) * sizeof(float));
  }
  for (std::size_t l = 0; l < entry.model.layers.size(); ++l) {
    const nn::LayerDesc& layer = entry.model.layers[l];
    if (layer.kind == nn::OpKind::kFullyConnected) {
      activation = nn::linear(activation.reshaped(Shape{batch, layer.in_c}),
                              weights[l], nullptr, config_.kernels);
      continue;
    }
    nn::Conv2dParams params;
    params.stride_h = layer.stride_h;
    params.stride_w = layer.stride_w;
    params.pad_h = layer.pad_h;
    params.pad_w = layer.pad_w;
    params.groups = layer.groups;
    activation =
        nn::conv2d(activation, weights[l], nullptr, params, config_.kernels);
  }
  task->checksums = row_checksums(activation);
}

ResponseRecord ServeEngine::response(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  FUSE_CHECK(id < responses_.size()) << "unknown request id " << id;
  return responses_[id];
}

std::uint64_t ServeEngine::num_requests() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return responses_.size();
}

ServeStats ServeEngine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServeStats stats;
  stats.submitted = submitted_;
  stats.admitted = admitted_;
  stats.rejected = rejected_;
  stats.completed = completed_;
  stats.batches = batch_seq_;
  std::vector<std::uint64_t> latencies;
  latencies.reserve(responses_.size());
  std::uint64_t last_completion = 0;
  for (const ResponseRecord& record : responses_) {
    if (record.status == RequestStatus::kCompleted) {
      latencies.push_back(record.latency_cycles());
      last_completion = std::max(last_completion, record.completion_cycle);
    }
  }
  std::sort(latencies.begin(), latencies.end());
  stats.makespan_cycles = last_completion;
  stats.mean_batch_size =
      batch_seq_ == 0 ? 0.0
                      : static_cast<double>(batch_members_total_) /
                            static_cast<double>(batch_seq_);
  stats.p50_latency_cycles = percentile_sorted(latencies, 0.50);
  stats.p90_latency_cycles = percentile_sorted(latencies, 0.90);
  stats.p99_latency_cycles = percentile_sorted(latencies, 0.99);
  if (last_completion > 0) {
    stats.throughput_per_mcycle = static_cast<double>(completed_) * 1e6 /
                                  static_cast<double>(last_completion);
  }
  return stats;
}

}  // namespace fuse::serve
