// util::ThreadPool contract: clean start/join, every task runs exactly
// once, exceptions cross back to the caller, the zero-thread pool degrades
// to inline serial execution, and nested parallel loops make progress.
// These are the invariants the fast kernels', the fast simulator's and the
// serving engine's thread-count determinism stand on; tools/check.sh
// additionally runs this suite under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

TEST(ThreadPool, NestedSamePoolLoopRunsInlineOnTheNestingThread) {
  // A parallel_for issued from inside one of this pool's chunks must not
  // re-submit helper chunks: it runs on the nesting thread, in ascending
  // order. This is what makes the serving engine's batch payloads free to
  // call parallel_for without deadlock risk (every worker could otherwise
  // be parked inside an outer chunk waiting on helpers no one claims).
  ThreadPool pool(4);
  std::atomic<int> out_of_thread{0};
  std::atomic<int> out_of_order{0};
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::int64_t) {
    const std::thread::id outer = std::this_thread::get_id();
    std::int64_t last = -1;
    pool.parallel_for(16, [&](std::int64_t j) {
      if (std::this_thread::get_id() != outer) {
        out_of_thread.fetch_add(1);
      }
      if (j != last + 1) {
        out_of_order.fetch_add(1);
      }
      last = j;
      total.fetch_add(1);
    });
  });
  EXPECT_EQ(total.load(), 8 * 16);
  EXPECT_EQ(out_of_thread.load(), 0);
  EXPECT_EQ(out_of_order.load(), 0);
}

TEST(ThreadPool, OnWorkerThreadTracksPoolIdentity) {
  ThreadPool pool(2);
  ThreadPool other(2);
  EXPECT_FALSE(pool.on_worker_thread());  // plain caller: no pool work
  std::atomic<int> inside_pool{0};
  std::atomic<int> inside_other{0};
  pool.parallel_for(16, [&](std::int64_t) {
    if (pool.on_worker_thread()) {
      inside_pool.fetch_add(1);
    }
    if (other.on_worker_thread()) {
      inside_other.fetch_add(1);
    }
  });
  EXPECT_EQ(inside_pool.load(), 16);   // every chunk body is marked
  EXPECT_EQ(inside_other.load(), 0);   // ... but only for its own pool
  EXPECT_FALSE(pool.on_worker_thread());  // scope unwinds with the loop
}

TEST(ThreadPool, NestedLoopOnADifferentPoolStillFansOut) {
  // The inline-nesting guard is per pool identity: a loop on POOL B from
  // inside POOL A's chunk distributes normally (this is the sweep pool /
  // serve pool layering). Assert B's workers actually participate.
  ThreadPool outer(2);
  ThreadPool inner(3);
  std::atomic<int> on_inner_worker{0};
  std::atomic<int> total{0};
  outer.parallel_for(2, [&](std::int64_t) {
    inner.parallel_for(64, [&](std::int64_t) {
      if (inner.on_worker_thread()) {
        on_inner_worker.fetch_add(1);
      }
      total.fetch_add(1);
    });
  });
  EXPECT_EQ(total.load(), 2 * 64);
  EXPECT_EQ(on_inner_worker.load(), 2 * 64);
}

TEST(ThreadPool, SubmittedTaskIsMarkedAsPoolWork) {
  // submit() tasks run under the same worker marking as parallel_for
  // chunks, so a nested loop from a submitted task is inline too.
  ThreadPool pool(2);
  std::atomic<bool> marked{false};
  std::atomic<bool> done{false};
  pool.submit([&] {
    marked.store(pool.on_worker_thread());
    done.store(true);
  });
  while (!done.load()) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(marked.load());
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
