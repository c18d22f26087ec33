// Thread pool behind the serving engine's payload workers.
//
// One mutex-guarded FIFO queue feeds every worker: tasks start in the
// order they were submitted. At the pool's task granularity (a batch
// payload) lock cost is noise.
//
// Semantics:
//   * ThreadPool(0) runs everything inline on the calling thread — what
//     tests use when they want the exact single-threaded execution order.
//   * parallel_for(n, body) blocks until all n iterations ran; the calling
//     thread participates and can finish the whole loop itself, so a
//     nested parallel_for from inside a task makes progress even when
//     every worker is busy.
//   * The first exception thrown by a parallel_for body is captured and
//     rethrown on the calling thread after the remaining iterations ran
//     (loop bodies write disjoint slots, so there is nothing to cancel).
//     Tasks given to raw submit() must not throw.
//   * The destructor drains every queued task, then joins.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
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

  /// Appends one task to the queue. Runs inline when the pool has no
  /// workers. The task must not throw.
  void submit(Task task);

  /// Runs body(0) .. body(n-1), distributing `grain`-sized index chunks
  /// across the workers and the calling thread. Returns when all
  /// iterations completed; rethrows the first body exception.
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t)>& body,
                    std::int64_t grain = 1);

  /// std::thread::hardware_concurrency(), clamped to >= 1.
  static int hardware_threads();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Task> queue_;  // guarded by mutex_
  bool stop_ = false;       // guarded by mutex_
  std::vector<std::thread> workers_;
};

}  // namespace fuse::util
