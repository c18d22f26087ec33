// Work-stealing thread pool behind the fast kernels and the serving
// engine's workers.
//
// Each worker owns a deque: it pushes/pops its own back (LIFO, cache-warm)
// and steals from other workers' fronts (FIFO, oldest first) when empty.
// All queue access is mutex-guarded per worker ("sharded" locks) — plain,
// portable, and clean under ThreadSanitizer; at task granularity (a
// kernel tile band, a batch payload) lock cost is noise.
//
// Semantics:
//   * ThreadPool(0) runs everything inline on the calling thread — the
//     serial fallback behind a 1-thread setting, and what tests use when
//     they want the exact single-threaded execution order.
//   * parallel_for(n, body) blocks until all n iterations ran; the calling
//     thread participates, so nested parallel_for from inside a task makes
//     progress instead of deadlocking (a nested caller drains its own
//     iteration space itself while waiting).
//   * Nested parallel_for on the SAME pool — called from inside a
//     parallel_for chunk or a submit() task running on this pool — runs
//     entirely inline on the nesting thread. Re-submitting helper chunks
//     from a worker could otherwise park every worker behind inner loops
//     whose helpers never get claimed; inline nesting keeps the outer
//     loop's chunk granularity as the unit of parallelism and makes the
//     serving engine's batch payloads (src/serve) free to fan out with
//     parallel_for without reasoning about which thread runs them.
//     on_worker_thread() exposes the guard for callers that want to
//     branch explicitly.
//   * The first exception thrown by a parallel_for body is captured and
//     rethrown on the calling thread after the loop drains; remaining
//     iterations still run (loop bodies write disjoint slots, so there is
//     nothing to cancel). Tasks given to raw submit() must not throw.
//   * The destructor drains every queued task, then joins.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fuse::util {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `threads` workers; 0 means inline execution.
  explicit ThreadPool(int threads = hardware_threads());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 in inline mode).
  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task (round-robin across worker deques). Runs inline
  /// when the pool has no workers. The task must not throw.
  void submit(Task task);

  /// Runs body(0) .. body(n-1), distributing `grain`-sized index chunks
  /// across the workers and the calling thread. Returns when all
  /// iterations completed; rethrows the first body exception.
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t)>& body,
                    std::int64_t grain = 1);

  /// std::thread::hardware_concurrency(), clamped to >= 1.
  static int hardware_threads();

  /// True while the calling thread is executing a task or parallel_for
  /// chunk that belongs to THIS pool (worker thread, or the caller while
  /// it participates in one of this pool's loops). parallel_for uses this
  /// to run nested same-pool loops inline.
  bool on_worker_thread() const;

 private:
  /// RAII marker: the calling thread is running work owned by `pool`.
  /// Nesting-depth aware (a worker can re-enter via an inline nested
  /// loop), thread_local, and scoped to the pool identity so distinct
  /// pools (e.g. the sweep pool driving a serve engine's pool) never
  /// shadow each other.
  class WorkerScope {
   public:
    explicit WorkerScope(const ThreadPool* pool);
    ~WorkerScope();
    WorkerScope(const WorkerScope&) = delete;
    WorkerScope& operator=(const WorkerScope&) = delete;

   private:
    const ThreadPool* prev_;
  };

  struct WorkQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void worker_loop(std::size_t id);
  bool try_pop(std::size_t worker, Task& out);
  bool try_steal(std::size_t thief, Task& out);

  std::vector<std::unique_ptr<WorkQueue>> queues_;
  std::vector<std::thread> workers_;

  // Sleep/wake protocol: pending_ counts tasks sitting in a queue (it is
  // decremented at claim time, under the claimed queue's mutex) and is
  // incremented under sleep_mutex_ so a worker evaluating the wait
  // predicate cannot miss a wakeup.
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<std::int64_t> pending_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> next_queue_{0};
};

}  // namespace fuse::util
