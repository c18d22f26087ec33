#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "util/check.hpp"
#include "util/telemetry.hpp"

namespace fuse::util {

namespace {

// Pool metrics (docs/observability.md): total tasks through submit() and
// the level / high-water mark of queued-but-unclaimed tasks.
Counter& tasks_submitted() {
  static Counter& counter = metrics().counter("pool.tasks_submitted");
  return counter;
}
Gauge& queue_depth() {
  static Gauge& gauge = metrics().gauge("pool.queue_depth");
  return gauge;
}

}  // namespace

int ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int threads) {
  FUSE_CHECK(threads >= 0) << "thread count must be >= 0, got " << threads;
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::submit(Task task) {
  FUSE_CHECK(task != nullptr) << "cannot submit an empty task";
  tasks_submitted().add();
  if (workers_.empty()) {
    task();
    return;
  }
  queue_depth().add(1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping, and every queued task ran
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_depth().add(-1);
    task();
  }
}

void ThreadPool::parallel_for(std::int64_t n,
                              const std::function<void(std::int64_t)>& body,
                              std::int64_t grain) {
  FUSE_CHECK(n >= 0) << "parallel_for needs n >= 0, got " << n;
  FUSE_CHECK(grain >= 1) << "parallel_for needs grain >= 1, got " << grain;
  if (n == 0) {
    return;
  }
  static Counter& loops = metrics().counter("pool.parallel_fors");
  loops.add();
  ScopedSpan span("pool.parallel_for", "pool");
  if (span.active()) {
    span.annotate("n", static_cast<std::uint64_t>(n));
    span.annotate("grain", static_cast<std::uint64_t>(grain));
  }

  // Helper tasks may start after the loop returned (their chunks all
  // claimed by others), so the state they share is reference-counted.
  struct LoopState {
    std::atomic<std::int64_t> next{0};  // first unclaimed index
    std::atomic<std::int64_t> done{0};  // completed iterations
    std::int64_t n = 0;
    std::int64_t grain = 1;
    const std::function<void(std::int64_t)>* body = nullptr;
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;  // first body exception, guarded by mutex
  };
  auto state = std::make_shared<LoopState>();
  state->n = n;
  state->grain = grain;
  state->body = &body;  // outlives every claimed chunk: the caller waits

  auto run_chunks = [state] {
    while (true) {
      const std::int64_t begin = state->next.fetch_add(state->grain);
      if (begin >= state->n) {
        return;
      }
      const std::int64_t end = std::min(begin + state->grain, state->n);
      for (std::int64_t i = begin; i < end; ++i) {
        try {
          (*state->body)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->mutex);
          if (!state->error) {
            state->error = std::current_exception();
          }
        }
      }
      if (state->done.fetch_add(end - begin) + (end - begin) == state->n) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->cv.notify_all();
      }
    }
  };

  const std::int64_t chunks = (n + grain - 1) / grain;
  const std::int64_t helpers =
      std::min<std::int64_t>(static_cast<std::int64_t>(size()), chunks - 1);
  for (std::int64_t i = 0; i < helpers; ++i) {
    submit(run_chunks);
  }
  run_chunks();  // the caller participates, so the loop always finishes

  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock, [&state] { return state->done.load() == state->n; });
  if (state->error) {
    std::rethrow_exception(state->error);
  }
}

}  // namespace fuse::util
