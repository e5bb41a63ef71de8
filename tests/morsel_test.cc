// Tests for morsel-driven scheduling (exec/morsel.h): the global run
// registry's exactly-once / deterministic-partition / lowest-error
// contracts, and SharedScanManager's inter-query scan coalescing.

#include "exec/morsel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace mpq {
namespace {

TEST(MorselSchedulerTest, CoversEveryIndexExactlyOnce) {
  for (size_t workers : {size_t{0}, size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(workers);
    MorselScheduler sched(&pool);
    constexpr size_t kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    Status st = sched.Run(kN, 64, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      return Status::OK();
    });
    ASSERT_TRUE(st.ok());
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " workers " << workers;
    }
    EXPECT_EQ(sched.morsels_executed(), (kN + 63) / 64);
    EXPECT_EQ(sched.runs_started(), 1u);
    EXPECT_EQ(sched.morsels_pending(), 0u);
  }
}

TEST(MorselSchedulerTest, MorselBoundariesIndependentOfThreads) {
  // The morsel partition must depend only on (n, grain) — the property that
  // makes batch-order merges bit-identical at 1, 2, or 8 threads.
  std::vector<std::vector<std::pair<size_t, size_t>>> partitions;
  for (size_t workers : {size_t{0}, size_t{2}, size_t{8}}) {
    ThreadPool pool(workers);
    MorselScheduler sched(&pool);
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> morsels;
    Status st = sched.Run(1000, 128, [&](size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      morsels.emplace_back(begin, end);
      return Status::OK();
    });
    ASSERT_TRUE(st.ok());
    std::sort(morsels.begin(), morsels.end());
    partitions.push_back(std::move(morsels));
  }
  EXPECT_EQ(partitions[0], partitions[1]);
  EXPECT_EQ(partitions[1], partitions[2]);
}

TEST(MorselSchedulerTest, ReportsLowestMorselError) {
  ThreadPool pool(4);
  MorselScheduler sched(&pool);
  Status st = sched.Run(1000, 10, [&](size_t begin, size_t) {
    if (begin >= 500) {
      return Status::Internal("morsel " + std::to_string(begin));
    }
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(st.message(), "morsel 500");
}

TEST(MorselSchedulerTest, ConcurrentRunsShareOneQueue) {
  // N caller threads each register a run; workers pump the shared FIFO.
  // Every run must cover its own range exactly once with no cross-talk.
  ThreadPool pool(2);
  MorselScheduler sched(&pool);
  constexpr size_t kRuns = 8;
  constexpr size_t kN = 4096;
  std::vector<std::vector<std::atomic<int>>> hits(kRuns);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kN);
  std::vector<std::thread> callers;
  std::vector<Status> results(kRuns);
  for (size_t r = 0; r < kRuns; ++r) {
    callers.emplace_back([&, r] {
      results[r] = sched.Run(kN, 64, [&, r](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) hits[r][i].fetch_add(1);
        return Status::OK();
      });
    });
  }
  for (auto& t : callers) t.join();
  for (size_t r = 0; r < kRuns; ++r) {
    ASSERT_TRUE(results[r].ok()) << "run " << r;
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[r][i].load(), 1) << "run " << r << " index " << i;
    }
  }
  EXPECT_EQ(sched.runs_started(), kRuns);
  EXPECT_EQ(sched.morsels_executed(), kRuns * (kN / 64));
  EXPECT_EQ(sched.morsels_pending(), 0u);
  EXPECT_GE(sched.queue_depth_peak(), kN / 64);
}

TEST(MorselSchedulerTest, NullPoolRunsInline) {
  // Without a pool every morsel runs on the caller, in order: the plain
  // counter below needs no synchronization.
  MorselScheduler sched(nullptr);
  const std::thread::id caller = std::this_thread::get_id();
  size_t total = 0;
  size_t next_begin = 0;
  Status st = sched.Run(100, 7, [&](size_t begin, size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(begin, next_begin);
    next_begin = end;
    total += end - begin;
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(sched.morsels_executed(), 15u);
}

TEST(MorselSchedulerTest, NestedRunDoesNotDeadlock) {
  // Independent plan subtrees are morsels whose bodies run operator loops:
  // a Run inside a morsel must complete even when every worker is itself
  // waiting on a nested run.
  ThreadPool pool(2);
  MorselScheduler sched(&pool);
  std::atomic<size_t> total{0};
  Status st = sched.Run(8, 1, [&](size_t, size_t) {
    return sched.Run(64, 8, [&](size_t begin, size_t end) {
      total.fetch_add(end - begin);
      return Status::OK();
    });
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(total.load(), 8u * 64u);
  EXPECT_EQ(sched.runs_started(), 9u);
  EXPECT_EQ(sched.morsels_pending(), 0u);
}

TEST(MorselSchedulerTest, CallerFinishesRunWhileOnlyWorkerIsBusy) {
  // The only worker is parked on an unrelated task for the whole run: the
  // caller must claim every morsel itself instead of waiting for help.
  ThreadPool pool(1);
  MorselScheduler sched(&pool);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.Submit([&] {
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
  }));
  while (!entered.load()) std::this_thread::yield();
  size_t covered = 0;  // caller-only: the worker never gets a morsel
  Status st = sched.Run(256, 16, [&](size_t begin, size_t end) {
    covered += end - begin;
    return Status::OK();
  });
  release.store(true);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(covered, 256u);
  EXPECT_EQ(sched.morsels_executed(), 16u);
}

// Collects per-batch coverage for one Scan participant: slot b records how
// many times fn ran for batch b (each slot is written by whichever thread
// claimed the batch — exactly-once makes the writes disjoint).
std::function<Status(size_t, size_t, size_t)> Coverage(
    std::vector<std::atomic<int>>* slots, size_t grain, size_t n) {
  return [slots, grain, n](size_t batch, size_t begin, size_t end) {
    EXPECT_EQ(begin, batch * grain);
    EXPECT_EQ(end, std::min(begin + grain, n));
    (*slots)[batch].fetch_add(1);
    return Status::OK();
  };
}

TEST(SharedScanTest, LeadAndAttachCoalesce) {
  // Deterministic coalescing: hold the leader before its first claim, attach
  // a second scan, release — the attacher must join the in-flight scan (one
  // lead, one attach) and every batch must run exactly once per participant.
  SharedScanManager mgr;
  int payload = 0;
  constexpr size_t kN = 1000;
  constexpr size_t kGrain = 100;
  constexpr size_t kBatches = 10;
  std::vector<std::atomic<int>> a(kBatches), b(kBatches);

  mgr.HoldNewScansForTesting();
  std::thread leader([&] {
    Status st = mgr.Scan(&payload, kN, kGrain, Coverage(&a, kGrain, kN));
    EXPECT_TRUE(st.ok());
  });
  while (mgr.leads() < 1) std::this_thread::yield();
  std::thread attacher([&] {
    Status st = mgr.Scan(&payload, kN, kGrain, Coverage(&b, kGrain, kN));
    EXPECT_TRUE(st.ok());
  });
  while (mgr.attaches() < 1) std::this_thread::yield();
  mgr.ReleaseHeldScansForTesting();
  leader.join();
  attacher.join();

  EXPECT_EQ(mgr.leads(), 1u);
  EXPECT_EQ(mgr.attaches(), 1u);
  // The attacher joined at batch 0 (leader was parked), so every batch
  // served both participants from one claim.
  EXPECT_EQ(mgr.shared_batches(), kBatches);
  for (size_t i = 0; i < kBatches; ++i) {
    EXPECT_EQ(a[i].load(), 1) << "leader batch " << i;
    EXPECT_EQ(b[i].load(), 1) << "attacher batch " << i;
  }
}

TEST(SharedScanTest, SequentialScansDoNotCoalesce) {
  // A finished scan must retire from the active map: a later identical scan
  // leads its own claim loop instead of attaching to exhausted state.
  SharedScanManager mgr;
  int payload = 0;
  std::vector<std::atomic<int>> a(4), b(4);
  ASSERT_TRUE(mgr.Scan(&payload, 400, 100, Coverage(&a, 100, 400)).ok());
  ASSERT_TRUE(mgr.Scan(&payload, 400, 100, Coverage(&b, 100, 400)).ok());
  EXPECT_EQ(mgr.leads(), 2u);
  EXPECT_EQ(mgr.attaches(), 0u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a[i].load(), 1);
    EXPECT_EQ(b[i].load(), 1);
  }
}

TEST(SharedScanTest, DifferentKeysDoNotCoalesce) {
  // Coalescing requires the same (payload, n, grain): a different payload or
  // partition leads separately even while a scan is held in flight.
  SharedScanManager mgr;
  int payload1 = 0;
  int payload2 = 0;
  std::vector<std::atomic<int>> a(4), b(4), c(8);
  mgr.HoldNewScansForTesting();
  std::thread t1([&] {
    EXPECT_TRUE(mgr.Scan(&payload1, 400, 100, Coverage(&a, 100, 400)).ok());
  });
  while (mgr.leads() < 1) std::this_thread::yield();
  std::thread t2([&] {
    EXPECT_TRUE(mgr.Scan(&payload2, 400, 100, Coverage(&b, 100, 400)).ok());
  });
  std::thread t3([&] {
    EXPECT_TRUE(mgr.Scan(&payload1, 400, 50, Coverage(&c, 50, 400)).ok());
  });
  while (mgr.leads() < 3) std::this_thread::yield();
  mgr.ReleaseHeldScansForTesting();
  t1.join();
  t2.join();
  t3.join();
  EXPECT_EQ(mgr.leads(), 3u);
  EXPECT_EQ(mgr.attaches(), 0u);
}

TEST(SharedScanTest, ErrorsStayPerParticipant) {
  // One participant's callback failing must surface only through that
  // participant's Scan; the co-scanner still completes cleanly.
  SharedScanManager mgr;
  int payload = 0;
  std::vector<std::atomic<int>> good(10);
  Status bad_st;
  mgr.HoldNewScansForTesting();
  std::thread bad([&] {
    bad_st = mgr.Scan(&payload, 1000, 100, [](size_t batch, size_t, size_t) {
      if (batch >= 5) {
        return Status::Internal("batch " + std::to_string(batch));
      }
      return Status::OK();
    });
  });
  while (mgr.leads() < 1) std::this_thread::yield();
  std::thread ok([&] {
    EXPECT_TRUE(mgr.Scan(&payload, 1000, 100, Coverage(&good, 100, 1000)).ok());
  });
  while (mgr.attaches() < 1) std::this_thread::yield();
  mgr.ReleaseHeldScansForTesting();
  bad.join();
  ok.join();
  ASSERT_FALSE(bad_st.ok());
  // Lowest failing batch wins, deterministically, whichever thread ran it.
  EXPECT_EQ(bad_st.message(), "batch 5");
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(good[i].load(), 1);
}

TEST(SharedScanTest, ManyConcurrentScansExactCoverage) {
  // Hammer: N threads scan the same payload concurrently with no holds.
  // However lead/attach interleaves, per-participant coverage must stay
  // exactly-once and the lead/attach split must account for every scan.
  SharedScanManager mgr;
  int payload = 0;
  constexpr size_t kThreads = 8;
  constexpr size_t kBatches = 32;
  std::vector<std::vector<std::atomic<int>>> hits(kThreads);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kBatches);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      EXPECT_TRUE(mgr.Scan(&payload, kBatches * 10, 10,
                           Coverage(&hits[t], 10, kBatches * 10))
                      .ok());
    });
  }
  for (auto& t : threads) t.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t b = 0; b < kBatches; ++b) {
      ASSERT_EQ(hits[t][b].load(), 1) << "thread " << t << " batch " << b;
    }
  }
  EXPECT_EQ(mgr.leads() + mgr.attaches(), kThreads);
  EXPECT_GE(mgr.leads(), 1u);
}

}  // namespace
}  // namespace mpq
