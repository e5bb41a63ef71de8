// Async QueryService tests: the ExecuteAsync path must produce responses
// bit-identical to synchronous Execute (same rows, same metrics counters) at
// several thread counts, support cancellation before the first morsel runs,
// shed deterministically at the queue-depth cap, and coalesce concurrent
// same-snapshot scans across queries (the shared-scan acceptance check).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/pricing.h"
#include "net/topology.h"
#include "paper_example.h"
#include "service/metrics.h"
#include "service/query_service.h"
#include "table_identity.h"

namespace mpq {
namespace {

using testing::ExpectTablesIdentical;
using testing::MakePaperExample;
using testing::PaperExample;

/// Polls until every handle is done or `limit` passes; returns whether all
/// finished. Never calls Wait(): a waiter helps drain the pool, which can
/// mask a stuck scheduler — and a hang must fail the test, not block it.
bool AllDoneWithin(const std::vector<std::shared_ptr<AsyncQuery>>& queries,
                   std::chrono::seconds limit) {
  auto deadline = std::chrono::steady_clock::now() + limit;
  for (const auto& q : queries) {
    while (!q->Done()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return true;
}

constexpr const char* kPaperSql =
    "select T, avg(P) from Hosp join Ins on S = C "
    "where D = 'stroke' group by T having avg(P) > 100";

class ServiceAsyncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = MakePaperExample();
    prices_ = PricingTable::PaperDefaults(ex_->subjects);
    topo_ = Topology::PaperDefaults(ex_->subjects);
    hosp_ = ex_->HospData();
    ins_ = ex_->InsData();
  }

  std::unique_ptr<QueryService> MakeService(ServiceConfig config = {}) {
    auto service = std::make_unique<QueryService>(
        &ex_->catalog, &ex_->subjects, ex_->policy.get(), &prices_, &topo_,
        config);
    service->LoadTable(ex_->hosp, &hosp_);
    service->LoadTable(ex_->ins, &ins_);
    return service;
  }

  std::unique_ptr<PaperExample> ex_;
  PricingTable prices_;
  Topology topo_;
  Table hosp_, ins_;
};

TEST_F(ServiceAsyncTest, AsyncMatchesSyncBitIdentical) {
  // The async path is the same execution under a future: at 1, 2, and 8
  // workers the response rows must be byte-identical to the synchronous
  // ones and the serving counters must advance exactly the same way.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ServiceConfig config;
    config.exec_threads = threads;
    auto service = MakeService(config);
    auto session = service->OpenSession(ex_->U);
    ASSERT_TRUE(session.ok());
    auto stmt = service->Prepare(kPaperSql);
    ASSERT_TRUE(stmt.ok());

    auto sync = service->Execute(*stmt, *session);
    ASSERT_TRUE(sync.ok()) << "threads " << threads;
    ServiceMetrics m0 = service->Metrics();

    auto query = service->ExecuteAsync(*stmt, *session);
    ASSERT_TRUE(query.ok()) << "threads " << threads;
    const Result<QueryResponse>& async = (*query)->Wait();
    ASSERT_TRUE(async.ok()) << "threads " << threads;
    EXPECT_TRUE((*query)->Done());

    ExpectTablesIdentical(async->table, sync->table, "async vs sync");
    EXPECT_EQ(async->stats.result_rows, sync->stats.result_rows);
    EXPECT_EQ(async->stats.cache, CacheOutcome::kHit);

    ServiceMetrics m1 = service->Metrics();
    EXPECT_EQ(m1.queries - m0.queries, 1u) << "threads " << threads;
    EXPECT_EQ(m1.async_queries - m0.async_queries, 1u);
    EXPECT_EQ(m1.rows_returned - m0.rows_returned, sync->stats.result_rows);
    EXPECT_EQ(m1.errors, m0.errors);
    EXPECT_EQ(m1.sheds, m0.sheds);
  }
}

TEST_F(ServiceAsyncTest, ManyAsyncQueriesAllIdentical) {
  ServiceConfig config;
  config.exec_threads = 2;
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto stmt = service->Prepare(kPaperSql);
  ASSERT_TRUE(stmt.ok());
  auto reference = service->Execute(*stmt, *session);
  ASSERT_TRUE(reference.ok());

  std::vector<std::shared_ptr<AsyncQuery>> queries;
  for (int i = 0; i < 16; ++i) {
    auto q = service->ExecuteAsync(*stmt, *session);
    ASSERT_TRUE(q.ok()) << "submission " << i;
    queries.push_back(*q);
  }
  for (auto& q : queries) {
    const Result<QueryResponse>& r = q->Wait();
    ASSERT_TRUE(r.ok());
    ExpectTablesIdentical(r->table, reference->table, "async burst");
  }
  EXPECT_EQ(service->Metrics().async_queries, 16u);
}

TEST_F(ServiceAsyncTest, CancelBeforeFirstMorsel) {
  ServiceConfig config;
  config.exec_threads = 1;
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto stmt = service->Prepare(kPaperSql);
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(service->Execute(*stmt, *session).ok());  // warm the cache
  ServiceMetrics m0 = service->Metrics();

  // Park the only worker so the submitted query cannot start.
  // The gate lives on the heap, shared with the parked task: the worker can
  // still be spinning on it when the service destructor joins the pool,
  // after this frame's locals are gone.
  struct Gate {
    std::atomic<bool> entered{false};
    std::atomic<bool> release{false};
  };
  auto gate = std::make_shared<Gate>();
  ASSERT_TRUE(service->pool()->Submit([gate] {
    gate->entered.store(true);
    while (!gate->release.load()) std::this_thread::yield();
  }));
  while (!gate->entered.load()) std::this_thread::yield();

  auto query = service->ExecuteAsync(*stmt, *session);
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE((*query)->Done());
  // Still queued behind the gate: cancellation must win, and no part of the
  // query may execute afterwards.
  EXPECT_TRUE((*query)->Cancel());
  EXPECT_FALSE((*query)->Cancel());  // already cancelled
  gate->release.store(true);

  const Result<QueryResponse>& r = (*query)->Wait();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);

  // Drain the pool task so the cancelled counter settles.
  while (service->Metrics().cancelled == m0.cancelled) {
    std::this_thread::yield();
  }
  ServiceMetrics m1 = service->Metrics();
  EXPECT_EQ(m1.cancelled - m0.cancelled, 1u);
  EXPECT_EQ(m1.queries, m0.queries);  // never executed
  EXPECT_EQ(m1.errors, m0.errors);
}

TEST_F(ServiceAsyncTest, CancelAfterCompletionFails) {
  ServiceConfig config;
  config.exec_threads = 1;
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto query = service->ExecuteSqlAsync(kPaperSql, *session);
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE((*query)->Wait().ok());
  EXPECT_FALSE((*query)->Cancel());
  EXPECT_EQ(service->Metrics().cancelled, 0u);
}

TEST_F(ServiceAsyncTest, ShedsAtQueueDepthCap) {
  ServiceConfig config;
  config.exec_threads = 1;
  config.max_in_flight = 1;
  config.max_queue_depth = 2;
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto stmt = service->Prepare(kPaperSql);
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(service->Execute(*stmt, *session).ok());

  // The gate lives on the heap, shared with the parked task: the worker can
  // still be spinning on it when the service destructor joins the pool,
  // after this frame's locals are gone.
  struct Gate {
    std::atomic<bool> entered{false};
    std::atomic<bool> release{false};
  };
  auto gate = std::make_shared<Gate>();
  ASSERT_TRUE(service->pool()->Submit([gate] {
    gate->entered.store(true);
    while (!gate->release.load()) std::this_thread::yield();
  }));
  while (!gate->entered.load()) std::this_thread::yield();

  // With the worker parked, submissions queue until the depth cap and the
  // rest shed with kUnavailable, nothing enqueued.
  std::vector<std::shared_ptr<AsyncQuery>> accepted;
  size_t shed = 0;
  for (int i = 0; i < 5; ++i) {
    auto q = service->ExecuteAsync(*stmt, *session);
    if (q.ok()) {
      accepted.push_back(*q);
    } else {
      EXPECT_EQ(q.status().code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_EQ(accepted.size(), 2u);
  EXPECT_EQ(shed, 3u);
  gate->release.store(true);
  for (auto& q : accepted) EXPECT_TRUE(q->Wait().ok());

  ServiceMetrics m = service->Metrics();
  EXPECT_EQ(m.sheds, 3u);
  EXPECT_EQ(m.async_queries, 2u);
  EXPECT_GE(m.queue_depth_peak, 2u);
}

TEST_F(ServiceAsyncTest, FullServiceBurstNeverLivelocks) {
  // Every worker is also a slot holder (exec_threads == max_in_flight), and
  // the paper query runs as a multi-fragment DAG whose drain loop inlines
  // queued pool tasks. Submissions keep arriving while queries run, so they
  // land on top of a slot holder's pending fragments in its LIFO deque. A
  // task that finds the service full must park and free its thread:
  // requeued instead, it is popped again and again while that holder's
  // fragments starve beneath it, until no query completes.
  ServiceConfig config;
  config.exec_threads = 2;
  config.max_in_flight = 2;
  config.max_queue_depth = 16;
  // 25 copies of every example row: each query then runs for a fraction of
  // a millisecond, far longer than the gap between submissions, so the
  // service stays full while they arrive.
  const Table hosp = hosp_, ins = ins_;
  for (int copy = 1; copy < 25; ++copy) {
    for (size_t r = 0; r < hosp.num_rows(); ++r) hosp_.AddRow(hosp.row(r));
    for (size_t r = 0; r < ins.num_rows(); ++r) ins_.AddRow(ins.row(r));
  }
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto stmt = service->Prepare(kPaperSql);
  ASSERT_TRUE(stmt.ok());
  auto reference = service->Execute(*stmt, *session);
  ASSERT_TRUE(reference.ok());

  ServiceMetrics m0 = service->Metrics();
  constexpr size_t kSubmissions = 400;
  std::vector<std::shared_ptr<AsyncQuery>> queries;
  size_t shed = 0;
  for (size_t i = 0; i < kSubmissions; ++i) {
    auto q = service->ExecuteAsync(*stmt, *session);
    if (q.ok()) {
      queries.push_back(*q);
    } else {
      ASSERT_EQ(q.status().code(), StatusCode::kUnavailable);  // shed
      ++shed;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  ASSERT_FALSE(queries.empty());
  if (!AllDoneWithin(queries, std::chrono::seconds(20))) {
    size_t done = 0;
    for (const auto& q : queries) done += q->Done() ? 1 : 0;
    ADD_FAILURE() << "only " << done << " of " << queries.size()
                  << " accepted async queries completed; the rest are stuck "
                  << "behind a full service";
    // Stuck workers still reference the service: leak it rather than
    // block forever joining them.
    (void)service.release();
    return;
  }
  for (const auto& q : queries) {
    const Result<QueryResponse>& r = q->Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectTablesIdentical(r->table, reference->table, "async under cap");
  }
  // Every submission was either accepted or shed, and the service counted
  // exactly the ones this caller saw.
  ServiceMetrics m1 = service->Metrics();
  EXPECT_EQ(queries.size() + shed, kSubmissions);
  EXPECT_EQ(m1.async_queries - m0.async_queries, queries.size());
  EXPECT_EQ(m1.sheds - m0.sheds, shed);
}

TEST_F(ServiceAsyncTest, CancelledParkedQueryReleasesItsSlot) {
  // The only slot is held by a scan stopped in the shared-scan test hook,
  // so an async query submitted meanwhile parks for admission. Cancelled
  // there, it is still handed the slot once the holder finishes — and must
  // pass it on, or the next query would wait forever.
  ServiceConfig config;
  config.exec_threads = 2;
  config.max_in_flight = 1;
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto scan = service->Prepare("select D, T from Hosp where D = 'stroke'");
  ASSERT_TRUE(scan.ok());
  auto stmt = service->Prepare(kPaperSql);
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(service->Execute(*stmt, *session).ok());  // warm the cache
  ServiceMetrics m0 = service->Metrics();

  service->shared_scans()->HoldNewScansForTesting();
  Result<QueryResponse> held = Status::Internal("unset");
  std::thread holder([&] { held = service->Execute(*scan, *session); });
  while (service->Metrics().scan_leads == m0.scan_leads) {
    std::this_thread::yield();
  }
  auto parked = service->ExecuteAsync(*stmt, *session);
  ASSERT_TRUE(parked.ok());
  // Run queued tasks here too, so the async task has reached admission.
  while (service->pool()->TryRunOneTask()) {
  }
  EXPECT_FALSE((*parked)->Done());
  EXPECT_TRUE((*parked)->Cancel());
  service->shared_scans()->ReleaseHeldScansForTesting();
  holder.join();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ((*parked)->Wait().status().code(), StatusCode::kUnavailable);

  // The cancelled query counts itself only after passing its slot on.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (service->Metrics().cancelled == m0.cancelled &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(service->Metrics().cancelled - m0.cancelled, 1u);
  auto next = service->ExecuteAsync(*stmt, *session);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(AllDoneWithin({*next}, std::chrono::seconds(20)))
      << "the cancelled query kept the slot it was handed";
  EXPECT_TRUE((*next)->Wait().ok());
  EXPECT_EQ(service->Metrics().queries - m0.queries, 2u);  // holder, next
}

TEST_F(ServiceAsyncTest, ShutdownResolvesParkedQueries) {
  // Destroying the service while queries are parked for admission must run
  // or cancel every one of them: no handle may be left pending.
  ServiceConfig config;
  config.exec_threads = 2;
  config.max_in_flight = 1;
  config.max_queue_depth = 8;
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto scan = service->Prepare("select D, T from Hosp where D = 'stroke'");
  ASSERT_TRUE(scan.ok());
  auto stmt = service->Prepare(kPaperSql);
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(service->Execute(*stmt, *session).ok());  // warm the cache
  ServiceMetrics m0 = service->Metrics();

  service->shared_scans()->HoldNewScansForTesting();
  std::vector<std::shared_ptr<AsyncQuery>> queries;
  auto holder = service->ExecuteAsync(*scan, *session);
  ASSERT_TRUE(holder.ok());
  queries.push_back(*holder);
  while (service->Metrics().scan_leads == m0.scan_leads) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 3; ++i) {
    auto q = service->ExecuteAsync(*stmt, *session);
    ASSERT_TRUE(q.ok());
    queries.push_back(*q);
  }
  while (service->pool()->TryRunOneTask()) {
  }
  service->shared_scans()->ReleaseHeldScansForTesting();
  service.reset();

  for (const auto& q : queries) {
    ASSERT_TRUE(q->Done());
    const Result<QueryResponse>& r = q->Wait();
    EXPECT_TRUE(r.ok() || r.status().code() == StatusCode::kUnavailable)
        << r.status().ToString();
  }
}

TEST_F(ServiceAsyncTest, SharedScanCoalescesConcurrentQueries) {
  // The acceptance check: two concurrent same-snapshot queries over the same
  // base table must coalesce onto one in-flight scan, observable through the
  // service's scan_leads / scan_attaches / scan_shared_batches counters, and
  // both must still return the exact reference rows. The statement touches
  // only D and T — plaintext-visible to every subject under the example's
  // GrantAny — so the select's input stays the zero-copy base snapshot
  // whose payload pointer is the shared-scan key. (The full paper query
  // encrypts S on the fly before its selection, and per-run nonces make
  // that input physically distinct per query: correctly never coalesced.)
  auto service = MakeService();  // inline execution: threads are the callers
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto stmt = service->Prepare("select D, T from Hosp where D = 'stroke'");
  ASSERT_TRUE(stmt.ok());
  auto reference = service->Execute(*stmt, *session);
  ASSERT_TRUE(reference.ok());
  ServiceMetrics m0 = service->Metrics();

  // Hold the next leader before its first batch claim so the second query
  // deterministically finds the scan in flight and attaches.
  service->shared_scans()->HoldNewScansForTesting();
  Result<QueryResponse> r1 = Status::Internal("unset");
  Result<QueryResponse> r2 = Status::Internal("unset");
  std::thread q1([&] { r1 = service->Execute(*stmt, *session); });
  while (service->Metrics().scan_leads == m0.scan_leads) {
    std::this_thread::yield();
  }
  std::thread q2([&] { r2 = service->Execute(*stmt, *session); });
  while (service->Metrics().scan_attaches == m0.scan_attaches) {
    std::this_thread::yield();
  }
  service->shared_scans()->ReleaseHeldScansForTesting();
  q1.join();
  q2.join();

  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ExpectTablesIdentical(r1->table, reference->table, "coalesced leader");
  ExpectTablesIdentical(r2->table, reference->table, "coalesced attacher");

  ServiceMetrics m1 = service->Metrics();
  EXPECT_GE(m1.scan_attaches - m0.scan_attaches, 1u);
  EXPECT_GE(m1.scan_shared_batches - m0.scan_shared_batches, 1u);
}

}  // namespace
}  // namespace mpq
