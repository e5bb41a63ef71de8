// Tests for the work-stealing ThreadPool.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

namespace mpq {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::atomic<int> done{0};
  constexpr int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      count.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < kTasks) {
    if (!pool.TryRunOneTask()) std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  int ran = 0;
  pool.Submit([&] { ran = 1; });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(ThreadPoolTest, SubmitFromWorkerThread) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.Submit([&] {
    // Nested submission lands on the submitting worker's own deque.
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&] { done.fetch_add(1); });
    }
    done.fetch_add(1);
  });
  while (done.load() < 11) {
    if (!pool.TryRunOneTask()) std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), 11);
}

TEST(ThreadPoolTest, DestructorRunsEveryAcceptedTask) {
  // Shutdown stress: destroy the pool while its queues are stuffed. Every
  // task Submit accepted must run exactly once — either by a worker or by
  // the destructor's inline drain — and rejected tasks must run zero times.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> accepted{0};
    std::atomic<int> executed{0};
    {
      ThreadPool pool(2);
      for (int i = 0; i < 500; ++i) {
        if (pool.Submit([&] { executed.fetch_add(1); })) {
          accepted.fetch_add(1);
        }
      }
      // Destructor fires with most of the 500 still queued.
    }
    EXPECT_EQ(executed.load(), accepted.load()) << "round " << round;
  }
}

TEST(ThreadPoolTest, SubmitDuringShutdownRunsOrRejectsCleanly) {
  // Tasks that resubmit from inside workers while the destructor races
  // them: every accepted task still runs exactly once, and a Submit that
  // loses the race to the drain returns false instead of stranding work
  // (or worse, touching freed queues).
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> accepted{0};
    std::atomic<int> executed{0};
    auto pool = std::make_unique<ThreadPool>(2);
    ThreadPool* p = pool.get();
    std::function<void()> resubmit = [&, p] {
      executed.fetch_add(1);
      for (int i = 0; i < 2; ++i) {
        if (p->Submit([&] { executed.fetch_add(1); })) {
          accepted.fetch_add(1);
        }
      }
    };
    for (int i = 0; i < 100; ++i) {
      if (p->Submit(resubmit)) accepted.fetch_add(1);
    }
    // Destroy immediately: workers are mid-resubmission, the drain must
    // pick up stragglers they enqueued and reject the ones it closed out.
    pool.reset();
    EXPECT_EQ(executed.load(), accepted.load()) << "round " << round;
  }
}

TEST(ThreadPoolTest, SubmitToIdleWorkerAlwaysRuns) {
  // Liveness of a single submit to an idle pool: the caller never helps, so
  // a wakeup lost between the worker's predicate test and its block would
  // leave the task queued until the deadline. Each round waits for the
  // previous task, then spins a varying moment so the submit lands at
  // different points of the worker's path back to sleep.
  using Clock = std::chrono::steady_clock;
  ThreadPool pool(1);
  for (int round = 0; round < 2000; ++round) {
    auto done = std::make_shared<std::atomic<bool>>(false);
    const auto submit_at =
        Clock::now() + std::chrono::nanoseconds((round % 64) * 250);
    while (Clock::now() < submit_at) {
    }
    ASSERT_TRUE(pool.Submit([done] { done->store(true); }));
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (!done->load()) {
      ASSERT_LT(Clock::now(), deadline)
          << "round " << round << ": submitted task never ran";
      std::this_thread::yield();
    }
  }
}

}  // namespace
}  // namespace mpq
