// util::ThreadPool contract: clean start/join, every task runs exactly
// once and in submission order, exceptions cross back to the caller, the
// zero-thread pool degrades to inline serial execution, and nested
// parallel loops make progress. These are the invariants the serving
// engine's worker-count determinism stands on; tools/check.sh
// additionally runs this suite under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace fuse::util {
namespace {

TEST(ThreadPool, StartsAndJoinsCleanly) {
  for (int threads : {0, 1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
  }  // destructor joins; nothing to assert beyond "no hang, no crash"
}

TEST(ThreadPool, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, NegativeThreadCountThrows) {
  EXPECT_THROW(ThreadPool(-1), Error);
}

TEST(ThreadPool, SubmitRunsEveryTaskExactlyOnce) {
  constexpr int kTasks = 200;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> runs(kTasks);
  std::atomic<int> completed{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&runs, &completed, i] {
      runs[static_cast<std::size_t>(i)].fetch_add(1);
      completed.fetch_add(1);
    });
  }
  while (completed.load() < kTasks) {
    std::this_thread::yield();
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }
}

TEST(ThreadPool, SubmitRunsTasksInSubmissionOrder) {
  // Hold the only worker inside a first task until every other task is
  // queued, so the run order is the queue's order alone.
  constexpr int kTasks = 32;
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  std::vector<int> order;  // written only by the single worker
  {
    ThreadPool pool(1);
    pool.submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      started = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return started; });
    }
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&order, i] { order.push_back(i); });
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      release = true;
    }
    cv.notify_all();
  }  // the destructor drains the queue and joins the worker
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  constexpr int kTasks = 100;
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&completed] { completed.fetch_add(1); });
    }
  }  // destructor must run every queued task before joining
  EXPECT_EQ(completed.load(), kTasks);
}

TEST(ThreadPool, SubmittingEmptyTaskThrows) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(ThreadPool::Task{}), Error);
}

TEST(ThreadPool, ParallelForRunsEveryIterationExactlyOnce) {
  for (int threads : {0, 1, 2, 8}) {
    ThreadPool pool(threads);
    constexpr std::int64_t kN = 500;
    std::vector<std::atomic<int>> runs(kN);
    pool.parallel_for(kN, [&runs](std::int64_t i) {
      runs[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < kN; ++i) {
      EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ThreadPool, ParallelForHonorsGrainAndRaggedTail) {
  ThreadPool pool(3);
  constexpr std::int64_t kN = 101;  // not a multiple of the grain
  std::vector<std::atomic<int>> runs(kN);
  pool.parallel_for(
      kN,
      [&runs](std::int64_t i) {
        runs[static_cast<std::size_t>(i)].fetch_add(1);
      },
      /*grain=*/7);
  for (std::int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1) << i;
  }
}

TEST(ThreadPool, ParallelForZeroIterationsIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&ran](std::int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForRejectsBadArguments) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(-1, [](std::int64_t) {}), Error);
  EXPECT_THROW(pool.parallel_for(4, [](std::int64_t) {}, /*grain=*/0),
               Error);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  for (int threads : {0, 2, 8}) {
    ThreadPool pool(threads);
    std::atomic<int> completed{0};
    EXPECT_THROW(
        pool.parallel_for(64,
                          [&completed](std::int64_t i) {
                            if (i == 13) {
                              throw Error("iteration 13 failed");
                            }
                            completed.fetch_add(1);
                          }),
        Error)
        << "threads=" << threads;
    // The remaining iterations still ran (pure sweep tasks: no cancel).
    EXPECT_EQ(completed.load(), 63) << "threads=" << threads;
  }
}

TEST(ThreadPool, ExceptionMessageIsTheFirstFailure) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(32, [](std::int64_t i) {
      if (i % 8 == 0) {
        FUSE_CHECK(false) << "bad index " << i;
      }
    });
    FAIL() << "expected the loop to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad index"), std::string::npos);
  }
}

TEST(ThreadPool, ZeroThreadPoolRunsInlineOnTheCallingThread) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  bool submitted_inline = false;
  pool.submit([&] { submitted_inline = std::this_thread::get_id() == caller; });
  EXPECT_TRUE(submitted_inline);  // submit already returned => already ran

  std::vector<std::thread::id> ids(17);
  std::vector<std::int64_t> order;
  pool.parallel_for(17, [&](std::int64_t i) {
    ids[static_cast<std::size_t>(i)] = std::this_thread::get_id();
    order.push_back(i);  // safe: inline mode is single-threaded
  });
  for (const std::thread::id& id : ids) {
    EXPECT_EQ(id, caller);
  }
  // Inline mode preserves ascending iteration order exactly.
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<std::int64_t>(i));
  }
}

TEST(ThreadPool, NestedParallelForMakesProgress) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(6, [&](std::int64_t) {
    pool.parallel_for(8, [&](std::int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 48);
}

TEST(ThreadPool, StressManySmallTasks) {
  ThreadPool pool(8);
  constexpr std::int64_t kN = 20000;
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(kN, [&sum](std::int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(ThreadPool, ParallelForUsesMultipleThreadsWhenAvailable) {
  // With workers present and enough blocking iterations, at least two
  // distinct threads participate. Each iteration waits until every other
  // one has started, so a serial execution would deadlock rather than
  // pass; the generous watchdog below keeps the suite safe regardless.
  ThreadPool pool(3);
  if (ThreadPool::hardware_threads() < 2) {
    GTEST_SKIP() << "single-core machine: concurrency not observable";
  }
  constexpr std::int64_t kN = 4;
  std::atomic<int> started{0};
  std::atomic<bool> timed_out{false};
  std::vector<std::thread::id> ids(kN);
  pool.parallel_for(kN, [&](std::int64_t i) {
    ids[static_cast<std::size_t>(i)] = std::this_thread::get_id();
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < kN &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (started.load() < kN) {
      timed_out.store(true);
    }
  });
  ASSERT_FALSE(timed_out.load());
  bool distinct = false;
  for (std::int64_t i = 1; i < kN; ++i) {
    distinct = distinct || ids[static_cast<std::size_t>(i)] != ids[0];
  }
  EXPECT_TRUE(distinct);
}

}  // namespace
}  // namespace fuse::util
