// The serving engine: deadline-bounded dynamic batching + admission
// control over the repo's per-call latency/execution APIs.
//
// Time is VIRTUAL: requests arrive at caller-supplied cycle stamps
// (nondecreasing), and every scheduling decision — admission, batch
// composition, array placement, completion — is computed sequentially in
// the cycle domain under one mutex, as a discrete-event simulation. The
// worker pool only executes batch PAYLOADS (real tensors through the
// kernel backend or the PE-grid simulator), whose results are pure
// functions of (shape, request id, seed) and feed back into nothing the
// scheduler reads. That split is the determinism argument: for a fixed
// submitted trace, every ResponseRecord — batch membership included — is
// byte-identical at any worker thread count, which tests/test_serve.cpp
// pins at 1/2/4 workers under TSan.
//
// Batching policy (docs/serving.md):
//   * One open batch per ShapeKey. The first member opens it and anchors
//     its deadline at arrival + batch_window.
//   * A batch closes (dispatches) when its deadline passes, or when it
//     reaches its cap = min(max_batch, smallest positive member hint).
//     batch_window == 0 degenerates to pure FIFO batch-1 serving.
//   * Service time is the batched roofline bound (ModelPool): weight
//     traffic and fill/drain amortize across the batch, so batching
//     trades queueing delay for throughput exactly as on real arrays.
//   * Dispatch places the batch on the virtual array that frees first
//     (ties to the lowest index); completion = max(close, free) + service.
//
// Admission control: the in-system request count (admitted, not yet
// completed) is bounded by queue_capacity; an arrival beyond it is
// rejected (classic bounded queue) and counted in serve.rejected.
//
// The public API is designed to be driven by ONE thread (the load
// generator); the engine's own worker pool supplies the concurrency.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "nn/ops.hpp"
#include "serve/model_pool.hpp"
#include "serve/request.hpp"
#include "util/thread_pool.hpp"

namespace fuse::serve {

struct ServeConfig {
  ExecMode mode = ExecMode::kCycle;
  std::uint64_t batch_window = 0;  // cycles an open batch may wait
  int max_batch = 8;
  int queue_capacity = 64;  // bound on admitted-but-unfinished requests
  int num_arrays = 1;       // independent virtual arrays (service stations)
  int workers = 0;          // payload pool threads (0 = inline execution)
  std::uint64_t seed = 0x5eedULL;  // request-input seeding (payloads)
  nn::KernelChoice kernels;        // tensor-mode payloads' kernel route

  /// FUSE_CHECKs every field, so no payload meets an unavailable ISA.
  void validate() const;
};

/// Deterministic aggregate snapshot (stats()); latency percentiles are
/// exact order statistics over completed requests, computed here rather
/// than via ProfileCollector so they survive FUSE_TELEMETRY=OFF builds.
struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;
  std::uint64_t makespan_cycles = 0;  // latest completion cycle seen
  double mean_batch_size = 0.0;
  double p50_latency_cycles = 0.0;
  double p90_latency_cycles = 0.0;
  double p99_latency_cycles = 0.0;
  /// Completed requests per million cycles of makespan.
  double throughput_per_mcycle = 0.0;
};

/// Exact percentile of an ascending-sorted sample vector (rank q*(n-1),
/// linear interpolation — the ProfileCollector convention, reimplemented
/// so cycle-domain stats work in telemetry-off builds). q in [0, 1].
double percentile_sorted(const std::vector<std::uint64_t>& sorted, double q);

class ServeEngine {
 public:
  /// No event pending (next_deadline).
  static constexpr std::uint64_t kNoEvent =
      static_cast<std::uint64_t>(-1);

  /// `pool` outlives the engine and may be shared across engines (the
  /// bench's batch-1 and batched legs plan each shape once this way).
  ServeEngine(const ServeConfig& config, ModelPool* pool);
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  const ServeConfig& config() const { return config_; }

  /// Submits one request at `arrival_cycle` (nondecreasing across calls —
  /// FUSE_CHECKed). Advances virtual time to the arrival first (closing
  /// due batches, retiring completions), then runs admission. Returns the
  /// request id; check response(id).status for kRejected.
  std::uint64_t submit(const ShapeKey& key, int batch_hint,
                       std::uint64_t arrival_cycle);

  /// Advances virtual time, dispatching every batch whose deadline passes
  /// and retiring every completion at or before `cycle`.
  void advance_to(std::uint64_t cycle);

  /// Earliest open-batch deadline, or kNoEvent.
  std::uint64_t next_deadline() const;

  /// Current virtual time (the latest event or arrival processed).
  std::uint64_t now() const;

  /// Closes every open batch at its deadline, retires every in-flight
  /// completion, waits for all payload tasks, and merges their checksums
  /// into the response records. The engine is reusable afterwards.
  void drain();

  /// Scheduling history of one request (snapshot by value: the record
  /// may gain status/checksum updates until drain() returns).
  ResponseRecord response(std::uint64_t id) const;

  std::uint64_t num_requests() const;

  ServeStats stats() const;

 private:
  struct Member {
    std::uint64_t id = 0;
    int hint = 0;
  };
  struct OpenBatch {
    std::vector<Member> members;
    std::uint64_t open_cycle = 0;
    std::uint64_t deadline = 0;
  };
  struct BatchTask {
    ShapeKey key;
    std::vector<std::uint64_t> ids;
    std::vector<std::uint64_t> checksums;  // parallel to ids
  };
  /// (completion, id) min-heap entries.
  using Completion = std::pair<std::uint64_t, std::uint64_t>;

  void advance_locked(std::uint64_t cycle);
  std::uint64_t next_deadline_locked(const ShapeKey** key_out) const;
  void dispatch_batch_locked(ShapeKey key, std::uint64_t close_cycle);
  void retire_one_locked();
  int effective_cap(const OpenBatch& batch) const;
  void run_payload(BatchTask* task);
  void wait_for_payloads();

  const ServeConfig config_;
  ModelPool* const pool_;

  mutable std::mutex mutex_;
  std::uint64_t now_ = 0;
  std::uint64_t last_arrival_ = 0;
  std::deque<ResponseRecord> responses_;  // indexed by request id
  std::unordered_map<ShapeKey, OpenBatch, ShapeKeyHash> open_batches_;
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      in_flight_;
  std::vector<std::uint64_t> array_free_;  // per-array next free cycle
  std::uint64_t in_system_ = 0;
  std::uint64_t batch_seq_ = 0;
  std::uint64_t batch_members_total_ = 0;

  // Deterministic local tallies mirrored into the serve.* telemetry
  // counters (which are process-global and gated on FUSE_TELEMETRY).
  std::uint64_t submitted_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t completed_ = 0;

  // Payload plumbing: tasks_ is a deque for reference stability; workers
  // write only their own task's checksums, and the driver merges them
  // under mutex_ after wait_for_payloads().
  std::deque<BatchTask> tasks_;
  std::size_t launched_ = 0;
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::size_t finished_ = 0;

  // Declared after done_mutex_/done_cv_ so destruction joins the worker
  // threads before the synchronization they signal is destroyed.
  util::ThreadPool worker_pool_;
};

}  // namespace fuse::serve
