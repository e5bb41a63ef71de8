// Write-path tests: MVCC snapshot isolation of the TableStore, write
// statement execution and authorization through the service, the plan cache
// across writes (a cached plan survives every write, reads exactly the
// snapshot its request pinned, and pins none itself — checked against the
// row oracle, concurrently, and through a provider crash), MRV counter
// semantics (invariant total >= 0, rollback, balance/adjust), and a
// concurrent-writer differential test against a serial oracle: the same set
// of statements applied by 1, 2, and 8 writer threads must converge to the
// bit-identical store state the serial application produces.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "exec/failover.h"
#include "exec/mrv.h"
#include "exec/table_store.h"
#include "exec/write_executor.h"
#include "net/pricing.h"
#include "net/simnet.h"
#include "net/topology.h"
#include "paper_example.h"
#include "service/query_service.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "testing/reference_exec.h"

namespace mpq {
namespace {

using testing::MakePaperExample;
using testing::PaperExample;

// ---- MRV counter unit tests ------------------------------------------------

TEST(MrvCounterTest, AddSubTotal) {
  MrvCounter c(100, 8, /*seed=*/7);
  EXPECT_EQ(c.Total(), 100);
  EXPECT_EQ(c.num_records(), 8u);
  c.Add(50);
  EXPECT_EQ(c.Total(), 150);
  ASSERT_TRUE(c.Sub(30).ok());
  EXPECT_EQ(c.Total(), 120);
  MrvStats s = c.Stats();
  EXPECT_EQ(s.adds, 1u);
  EXPECT_EQ(s.subs, 1u);
  EXPECT_EQ(s.sub_failures, 0u);
}

TEST(MrvCounterTest, SubInsufficientRollsBack) {
  MrvCounter c(100, 4, /*seed=*/3);
  // Gathers across every record, cannot cover, must restore all of it.
  Status st = c.Sub(101);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(c.Total(), 100);
  EXPECT_EQ(c.Stats().sub_failures, 1u);
  // Exactly the full amount still works.
  ASSERT_TRUE(c.Sub(100).ok());
  EXPECT_EQ(c.Total(), 0);
  EXPECT_EQ(c.Sub(1).code(), StatusCode::kInvalidArgument);
}

TEST(MrvCounterTest, BalanceRedistributes) {
  MrvCounter c(97, 4, /*seed=*/11);
  c.Balance();
  EXPECT_EQ(c.Total(), 97);
  // After balancing, any sub of one fair share completes in one record.
  ASSERT_TRUE(c.Sub(24).ok());
  EXPECT_EQ(c.Total(), 73);
}

TEST(MrvCounterTest, ResizeDrainsDeactivatedRecords) {
  MrvCounter c(64, 8, /*seed=*/5);
  c.Balance();
  c.Resize(2);
  EXPECT_EQ(c.num_records(), 2u);
  EXPECT_EQ(c.Total(), 64);  // nothing stranded in inactive records
  c.Resize(1);
  EXPECT_EQ(c.Total(), 64);
  ASSERT_TRUE(c.Sub(64).ok());
  EXPECT_EQ(c.Total(), 0);
}

TEST(MrvCounterTest, AdjustShrinksWhenSubsWalkManyRecords) {
  MrvCounter c(4, 4, /*seed=*/9);
  c.Balance();  // one unit per record
  ASSERT_TRUE(c.Sub(3).ok());  // walks >= 3 records, no contention
  EXPECT_TRUE(c.AdjustStep());
  EXPECT_EQ(c.num_records(), 2u);
  EXPECT_EQ(c.Stats().shrinks, 1u);
  EXPECT_EQ(c.Total(), 1);
}

TEST(MrvCounterTest, ConcurrentAddSubPreservesTotal) {
  // Per-thread: every Add precedes the matching Sub, so any interleaving
  // keeps the running total >= initial and no sub can fail.
  constexpr int kThreads = 8;
  constexpr int kOps = 200;
  MrvCounter c(1000, 16, /*seed=*/1);
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::thread maintenance([&] {
    while (!stop.load(std::memory_order_acquire)) {
      c.Balance();
      c.AdjustStep();
    }
  });
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &failures] {
      for (int i = 0; i < kOps; ++i) {
        c.Add(5);
        if (!c.Sub(3).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  maintenance.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(c.Total(), 1000 + kThreads * kOps * (5 - 3));
  EXPECT_GE(c.num_records(), 1u);
  EXPECT_LE(c.num_records(), MrvCounter::kMaxRecords);
}

// ---- TableStore snapshot tests ---------------------------------------------

class WritesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = MakePaperExample();
    prices_ = PricingTable::PaperDefaults(ex_->subjects);
    topo_ = Topology::PaperDefaults(ex_->subjects);
  }

  /// A store seeded with the paper example's data.
  std::unique_ptr<TableStore> MakeStore() {
    auto store = std::make_unique<TableStore>();
    store->Put(ex_->hosp, ex_->HospData());
    store->Put(ex_->ins, ex_->InsData());
    return store;
  }

  std::unique_ptr<QueryService> MakeService(TableStore* store,
                                            ServiceConfig config = {}) {
    config.store = store;
    return std::make_unique<QueryService>(&ex_->catalog, &ex_->subjects,
                                          ex_->policy.get(), &prices_, &topo_,
                                          config);
  }

  /// Canonical row-oracle result of `sql` over the tables of `snap`.
  std::vector<std::string> OracleRows(const std::string& sql,
                                      const Snapshot& snap) {
    Result<PlanPtr> plan = PlanFromSql(sql, ex_->catalog);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return {};
    ReferenceExecutor oracle(&ex_->catalog);
    for (RelId rel : {ex_->hosp, ex_->ins}) {
      oracle.LoadTable(rel, snap.Get(rel));
    }
    Result<Table> t = oracle.Run(plan->get());
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? CanonicalRows(*t) : std::vector<std::string>{};
  }

  std::unique_ptr<PaperExample> ex_;
  PricingTable prices_;
  Topology topo_;
};

TEST_F(WritesTest, SnapshotIsolation) {
  auto store = MakeStore();
  std::shared_ptr<const Snapshot> before = store->Current();
  const Table* hosp_before = before->Get(ex_->hosp);
  ASSERT_NE(hosp_before, nullptr);
  size_t rows_before = hosp_before->num_rows();

  Result<uint64_t> snap = store->Mutate(ex_->hosp, [](Table* t) {
    t->AddRow({Cell(Value(int64_t{200})), Cell(Value(int64_t{2000})),
               Cell(Value(std::string("flu"))),
               Cell(Value(std::string("rest")))});
    return Status::OK();
  });
  ASSERT_TRUE(snap.ok());
  EXPECT_GT(*snap, before->id);

  // The pinned snapshot still serves the pre-write state.
  EXPECT_EQ(hosp_before->num_rows(), rows_before);
  std::shared_ptr<const Snapshot> after = store->Current();
  EXPECT_EQ(after->id, *snap);
  EXPECT_EQ(after->Get(ex_->hosp)->num_rows(), rows_before + 1);
  // The untouched relation's payload is shared, not copied.
  EXPECT_EQ(before->Get(ex_->ins), after->Get(ex_->ins));
}

TEST_F(WritesTest, FailedMutatePublishesNothing) {
  auto store = MakeStore();
  uint64_t epoch = store->snapshot_epoch();
  Result<uint64_t> r = store->Mutate(ex_->hosp, [](Table* t) {
    t->AddRow({Cell(Value(int64_t{1})), Cell(Value(int64_t{2})),
               Cell(Value(std::string("x"))), Cell(Value(std::string("y")))});
    return Status::InvalidArgument("abort");
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(store->snapshot_epoch(), epoch);
  EXPECT_EQ(store->Current()->Get(ex_->hosp)->num_rows(), 4u);
}

// ---- Write statements through the service ----------------------------------

TEST_F(WritesTest, InsertUpdateDeleteVisibleToQueries) {
  auto store = MakeStore();
  auto service = MakeService(store.get());
  Session h = *service->OpenSession(ex_->H);
  Session u = *service->OpenSession(ex_->U);

  auto count_bulk = [&] {
    auto resp =
        service->ExecuteSql("select S from Hosp where D = 'bulk'", u);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    return resp.ok() ? resp->table.num_rows() : size_t{0};
  };
  EXPECT_EQ(count_bulk(), 0u);

  Result<WriteResult> ins = service->ExecuteWrite(
      "insert into Hosp values (500, 9000, 'bulk', 't0'), "
      "(501, 9000, 'bulk', 't0'), (502, 9001, 'bulk', 't0')",
      h);
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(ins->rows_affected, 3u);
  EXPECT_EQ(count_bulk(), 3u);

  Result<WriteResult> upd = service->ExecuteWrite(
      "update Hosp set T = 'u1' where B = 9000", h);
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(upd->rows_affected, 2u);

  Result<WriteResult> del =
      service->ExecuteWrite("delete from Hosp where S = 502", h);
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->rows_affected, 1u);
  EXPECT_EQ(count_bulk(), 2u);
  EXPECT_GT(del->snapshot_id, ins->snapshot_id);

  // Statement-level accounting surfaced in the metrics.
  ServiceMetrics m = service->Metrics();
  EXPECT_EQ(m.writes, 3u);
  EXPECT_EQ(m.write_errors, 0u);
  EXPECT_EQ(m.rows_written, 6u);
  EXPECT_EQ(m.snapshot_epoch, store->snapshot_epoch());
}

TEST_F(WritesTest, WriteAuthorizationUsesPlaintextView) {
  auto store = MakeStore();
  auto service = MakeService(store.get());
  Session u = *service->OpenSession(ex_->U);  // plain SDT on Hosp, no B
  Session i = *service->OpenSession(ex_->I);  // plain B only on Hosp
  Session h = *service->OpenSession(ex_->H);  // plain SBDT on Hosp

  // INSERT writes every column: U lacks plaintext B.
  Result<WriteResult> ins = service->ExecuteWrite(
      "insert into Hosp values (600, 1, 'flu', 'rest')", u);
  EXPECT_EQ(ins.status().code(), StatusCode::kUnauthorized);

  // UPDATE needs only the SET + WHERE attributes: U holds S, D, T plain.
  Result<WriteResult> upd = service->ExecuteWrite(
      "update Hosp set T = 'x' where S = 100", u);
  EXPECT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(upd->rows_affected, 1u);

  // ...but not an UPDATE whose filter reads B.
  Result<WriteResult> upd2 = service->ExecuteWrite(
      "update Hosp set T = 'x' where B = 1970", u);
  EXPECT_EQ(upd2.status().code(), StatusCode::kUnauthorized);

  // DELETE writes the whole row: I sees only B in plaintext.
  Result<WriteResult> del =
      service->ExecuteWrite("delete from Hosp where B = 1970", i);
  EXPECT_EQ(del.status().code(), StatusCode::kUnauthorized);

  // The error counter moved, and the denied statements changed nothing.
  EXPECT_EQ(service->Metrics().write_errors, 3u);
  auto resp = service->ExecuteSql("select S from Hosp where D = 'flu'", h);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->table.num_rows(), 1u);
}

TEST_F(WritesTest, NoStalePlanServedAcrossAWrite) {
  auto store = MakeStore();
  auto service = MakeService(store.get());
  Session h = *service->OpenSession(ex_->H);
  Session u = *service->OpenSession(ex_->U);
  const std::string sql = "select S from Hosp where D = 'stroke'";

  auto r1 = service->ExecuteSql(sql, u);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->stats.cache, CacheOutcome::kMiss);
  auto r2 = service->ExecuteSql(sql, u);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->stats.cache, CacheOutcome::kHit);
  EXPECT_EQ(r2->table.num_rows(), 3u);

  ASSERT_TRUE(service
                  ->ExecuteWrite(
                      "insert into Hosp values (700, 1, 'stroke', 'tpa')", h)
                  .ok());

  // The write advanced the snapshot epoch. The cached plan still serves
  // (it holds no data), and its run reads the new snapshot's row.
  auto r3 = service->ExecuteSql(sql, u);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->stats.cache, CacheOutcome::kHit);
  EXPECT_EQ(r3->table.num_rows(), 4u);
  EXPECT_GT(r3->stats.snapshot_id, r2->stats.snapshot_id);
  // The write caused no re-plan.
  ServiceMetrics m = service->Metrics();
  EXPECT_EQ(m.cache_misses, 1u);
  EXPECT_EQ(m.cache_insertions, 1u);
}

TEST_F(WritesTest, SupersededSnapshotIsReleased) {
  auto store = MakeStore();
  auto service = MakeService(store.get());
  Session h = *service->OpenSession(ex_->H);
  Session u = *service->OpenSession(ex_->U);
  const std::string sql = "select S from Hosp where D = 'stroke'";

  std::weak_ptr<const Snapshot> old_snapshot = store->Current();
  auto r1 = service->ExecuteSql(sql, u);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = service->ExecuteSql(sql, u);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->stats.cache, CacheOutcome::kHit);
  ASSERT_TRUE(service
                  ->ExecuteWrite(
                      "insert into Hosp values (710, 1, 'stroke', 'tpa')", h)
                  .ok());
  auto r3 = service->ExecuteSql(sql, u);
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(r3->stats.cache, CacheOutcome::kHit);
  EXPECT_EQ(service->CacheEntries(), 1u);
  // Nothing the cache holds keeps the superseded snapshot alive.
  EXPECT_TRUE(old_snapshot.expired());
}

TEST_F(WritesTest, CachedPlanServesEveryLaterSnapshot) {
  auto store = MakeStore();
  auto service = MakeService(store.get());
  Session h = *service->OpenSession(ex_->H);
  Session u = *service->OpenSession(ex_->U);
  const std::string sql = "select S, T from Hosp where D = 'stroke'";

  auto first = service->ExecuteSql(sql, u);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->stats.cache, CacheOutcome::kMiss);
  EXPECT_EQ(CanonicalRows(first->table), OracleRows(sql, *store->Current()));

  const std::vector<std::string> writes = {
      "insert into Hosp values (720, 1, 'stroke', 'tpa'), "
      "(721, 2, 'stroke', 'rest')",
      "update Hosp set T = 'surgery' where S = 100",
      "update Hosp set D = 'flu' where S = 721",
      "delete from Hosp where S = 102",
      "insert into Hosp values (722, 3, 'stroke', 'tpa')",
      "delete from Hosp where D = 'stroke'",
  };
  uint64_t last_snapshot = first->stats.snapshot_id;
  for (const std::string& write : writes) {
    Result<WriteResult> w = service->ExecuteWrite(write, h);
    ASSERT_TRUE(w.ok()) << write << ": " << w.status().ToString();
    auto r = service->ExecuteSql(sql, u);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->stats.cache, CacheOutcome::kHit) << write;
    EXPECT_GT(r->stats.snapshot_id, last_snapshot) << write;
    EXPECT_EQ(r->stats.snapshot_id, w->snapshot_id) << write;
    std::shared_ptr<const Snapshot> snap = store->Current();
    ASSERT_EQ(snap->id, r->stats.snapshot_id);
    EXPECT_EQ(CanonicalRows(r->table), OracleRows(sql, *snap)) << write;
    last_snapshot = r->stats.snapshot_id;
  }
  ServiceMetrics m = service->Metrics();
  EXPECT_EQ(m.cache_misses, 1u);
  EXPECT_EQ(m.cache_hits, writes.size());
}

TEST_F(WritesTest, ConcurrentReadersMatchTheOracleAtTheirSnapshot) {
  const std::string sql = "select S, T from Hosp where D = 'stroke'";
  // One writer publishes a fixed statement sequence; after each commit it
  // pins the snapshot it published, so every id a reader reports maps to
  // the exact tables the oracle must see.
  std::vector<std::string> writes;
  for (int i = 0; i < 24; ++i) {
    const int s = 800 + i;
    writes.push_back(StrFormat(
        "insert into Hosp values (%d, %d, 'stroke', 't%d')", s, i, i % 3));
    if (i % 3 == 1) {
      writes.push_back(StrFormat("update Hosp set T = 'u' where S = %d", s - 1));
    }
    if (i % 4 == 3) {
      writes.push_back(StrFormat("delete from Hosp where S = %d", s - 2));
    }
  }

  for (int threads : {1, 2, 8}) {
    auto store = MakeStore();
    ServiceConfig config;
    config.exec_threads = static_cast<size_t>(threads);
    auto service = MakeService(store.get(), config);
    Session h = *service->OpenSession(ex_->H);
    Session u = *service->OpenSession(ex_->U);
    auto warm = service->ExecuteSql(sql, u);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    const ServiceMetrics m0 = service->Metrics();

    std::map<uint64_t, std::shared_ptr<const Snapshot>> published;
    std::shared_ptr<const Snapshot> initial = store->Current();
    published[initial->id] = initial;

    struct Read {
      uint64_t snapshot_id;
      CacheOutcome cache;
      std::vector<std::string> rows;
    };
    std::vector<std::vector<Read>> reads(static_cast<size_t>(threads));
    std::atomic<bool> stop{false};
    std::atomic<int> errors{0};
    std::vector<std::thread> readers;
    readers.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      readers.emplace_back([&, t] {
        // At least a few reads each, then until the writer is done.
        for (int i = 0; i < 4 || !stop.load(std::memory_order_acquire);
             ++i) {
          auto r = service->ExecuteSql(sql, u);
          if (!r.ok()) {
            errors.fetch_add(1);
            continue;
          }
          reads[static_cast<size_t>(t)].push_back(
              {r->stats.snapshot_id, r->stats.cache,
               CanonicalRows(r->table)});
        }
      });
    }
    for (const std::string& write : writes) {
      Result<WriteResult> w = service->ExecuteWrite(write, h);
      if (!w.ok()) {
        errors.fetch_add(1);
        continue;
      }
      std::shared_ptr<const Snapshot> snap = store->Current();
      EXPECT_EQ(snap->id, w->snapshot_id);
      published[snap->id] = std::move(snap);
    }
    stop.store(true, std::memory_order_release);
    for (auto& r : readers) r.join();
    ASSERT_EQ(errors.load(), 0) << "threads=" << threads;

    std::map<uint64_t, std::vector<std::string>> oracle;
    size_t checked = 0;
    for (const std::vector<Read>& per_thread : reads) {
      for (const Read& r : per_thread) {
        auto snap = published.find(r.snapshot_id);
        ASSERT_NE(snap, published.end())
            << "threads=" << threads << " unknown snapshot " << r.snapshot_id;
        auto want = oracle.find(r.snapshot_id);
        if (want == oracle.end()) {
          want = oracle.emplace(r.snapshot_id, OracleRows(sql, *snap->second))
                     .first;
        }
        EXPECT_EQ(r.cache, CacheOutcome::kHit) << "threads=" << threads;
        EXPECT_EQ(r.rows, want->second)
            << "threads=" << threads << " snapshot " << r.snapshot_id;
        ++checked;
      }
    }
    EXPECT_GE(checked, static_cast<size_t>(4 * threads));
    const ServiceMetrics m1 = service->Metrics();
    EXPECT_EQ(m1.cache_misses, m0.cache_misses) << "threads=" << threads;
    EXPECT_EQ(m1.cache_hits - m0.cache_hits, checked) << "threads=" << threads;
  }
}

TEST_F(WritesTest, ProviderCrashUnderACachedPlanRecoversOverTheRequestSnapshot) {
  const std::string sql =
      "select T, avg(P) from Hosp join Ins on S = C "
      "where D = 'stroke' group by T having avg(P) > 100";
  // Probe which provider step the optimizer picks for the same query.
  Table hosp = ex_->HospData();
  Table ins = ex_->InsData();
  PlanPtr plan = ex_->BuildQueryPlan();
  SimNet probe_net(&ex_->subjects);
  FailoverExecutor probe(&ex_->catalog, &ex_->subjects, ex_->policy.get(),
                         &prices_, &topo_, &probe_net, FailoverConfig{});
  probe.LoadTable(ex_->hosp, &hosp);
  probe.LoadTable(ex_->ins, &ins);
  auto probed = probe.Execute(plan.get(), ex_->U);
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  int crash_step = -1;
  SubjectId victim = kInvalidSubject;
  for (const auto& [node_id, subject] :
       probed->assignment.extended.assignment) {
    if (ex_->subjects.Get(subject).kind == SubjectKind::kProvider) {
      crash_step = node_id;
      victim = subject;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidSubject) << "optimizer used no provider";

  auto store = MakeStore();
  SimNet net(&ex_->subjects);
  ServiceConfig config;
  config.net = &net;
  auto service = MakeService(store.get(), config);
  Session h = *service->OpenSession(ex_->H);
  Session u = *service->OpenSession(ex_->U);
  auto cold = service->ExecuteSql(sql, u);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(CanonicalRows(cold->table), OracleRows(sql, *store->Current()));

  // The write moves S = 100 out of the 'tpa' group, changing the result.
  ASSERT_TRUE(
      service->ExecuteWrite("update Hosp set T = 'surgery' where S = 100", h)
          .ok());
  std::shared_ptr<const Snapshot> written = store->Current();
  const std::vector<std::string> want = OracleRows(sql, *written);
  ASSERT_NE(want, CanonicalRows(cold->table));

  // The cached plan's provider dies mid-run; the recovery must read the
  // snapshot the request pinned, not the one the plan was built under.
  FaultPlan faults;
  faults.crash_at_step[victim] = crash_step;
  net.SetFaultPlan(faults);
  auto recovered = service->ExecuteSql(sql, u);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->stats.cache, CacheOutcome::kHit);
  EXPECT_GE(recovered->stats.failovers, 1u);
  EXPECT_EQ(recovered->stats.snapshot_id, written->id);
  EXPECT_EQ(CanonicalRows(recovered->table), want);
}

// ---- MRV counters through the service --------------------------------------

TEST_F(WritesTest, CounterAttachAddSubFlush) {
  auto store = MakeStore();
  auto service = MakeService(store.get());
  Session h = *service->OpenSession(ex_->H);
  Session u = *service->OpenSession(ex_->U);

  ASSERT_TRUE(service->CounterAttach("Hosp", "S", 100, "B", 8, h).ok());
  // Double attach is rejected.
  EXPECT_EQ(service->CounterAttach("Hosp", "S", 100, "B", 8, h).code(),
            StatusCode::kAlreadyExists);
  // U lacks plaintext B: counter updates are authorization-checked.
  EXPECT_EQ(service->CounterAdd("Hosp", "B", 100, 10, u).code(),
            StatusCode::kUnauthorized);

  ASSERT_TRUE(service->CounterAdd("Hosp", "B", 100, 30, h).ok());
  ASSERT_TRUE(service->CounterSub("Hosp", "B", 100, 10, h).ok());
  Result<int64_t> total = service->CounterTotal("Hosp", "B", 100, h);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 1970 + 30 - 10);

  // An oversized sub fails atomically.
  EXPECT_EQ(service->CounterSub("Hosp", "B", 100, 1000000, h).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(*service->CounterTotal("Hosp", "B", 100, h), 1990);

  // UPDATE of an MRV-managed column is routed to the counter API.
  EXPECT_EQ(service
                ->ExecuteWrite("update Hosp set B = 0 where S = 100", h)
                .status()
                .code(),
            StatusCode::kUnsupported);

  // Flush folds the live total into the snapshot-visible cell.
  uint64_t epoch_before = store->snapshot_epoch();
  ASSERT_TRUE(service->FlushCounters().ok());
  EXPECT_GT(store->snapshot_epoch(), epoch_before);
  const Table* hosp = store->Current()->Get(ex_->hosp);
  int b_col = 1;
  bool found = false;
  for (size_t r = 0; r < hosp->num_rows(); ++r) {
    if (hosp->col(0).GetValue(r).AsInt() == 100) {
      EXPECT_EQ(hosp->col(b_col).GetValue(r).AsInt(), 1990);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---- Concurrent-writer differential test vs serial oracle ------------------

/// One logical writer program: two 3-row inserts (unique batch tag in B),
/// an update of the first batch, a delete of the second, plus counter
/// traffic. Writers own disjoint key ranges, so programs commute and any
/// interleaving of full statements converges to the serial result.
struct WriterProgram {
  std::vector<std::string> statements;
  int64_t counter_add = 0;
  int64_t counter_sub = 0;
};

WriterProgram MakeProgram(int w) {
  int64_t base = 1000 + 100 * static_cast<int64_t>(w);
  int64_t tag1 = 5000 + 10 * static_cast<int64_t>(w) + 1;
  int64_t tag2 = 5000 + 10 * static_cast<int64_t>(w) + 2;
  WriterProgram p;
  auto row = [&](int64_t s, int64_t tag) {
    return StrFormat("(%lld, %lld, 'bulk', 't0')", (long long)s,
                     (long long)tag);
  };
  p.statements.push_back("insert into Hosp values " + row(base, tag1) + ", " +
                         row(base + 1, tag1) + ", " + row(base + 2, tag1));
  p.statements.push_back("insert into Hosp values " + row(base + 10, tag2) +
                         ", " + row(base + 11, tag2) + ", " +
                         row(base + 12, tag2));
  p.statements.push_back(StrFormat(
      "update Hosp set T = 'u%d' where B = %lld", w, (long long)tag1));
  p.statements.push_back(
      StrFormat("delete from Hosp where B = %lld", (long long)tag2));
  p.counter_add = 1000;
  p.counter_sub = 400;
  return p;
}

/// Canonical store state: every row of every relation rendered and sorted,
/// so physically different but logically identical states compare equal
/// (concurrent inserts append in nondeterministic order).
std::string CanonicalState(const TableStore& store,
                           const std::vector<RelId>& rels) {
  std::string out;
  std::shared_ptr<const Snapshot> snap = store.Current();
  for (RelId rel : rels) {
    const Table* t = snap->Get(rel);
    std::vector<std::string> rows;
    rows.reserve(t->num_rows());
    for (size_t r = 0; r < t->num_rows(); ++r) {
      std::string line;
      for (size_t c = 0; c < t->num_columns(); ++c) {
        line += t->col(c).GetValue(r).ToString();
        line += "|";
      }
      rows.push_back(std::move(line));
    }
    std::sort(rows.begin(), rows.end());
    out += StrFormat("rel %d\n", static_cast<int>(rel));
    for (const std::string& r : rows) out += r + "\n";
  }
  return out;
}

TEST_F(WritesTest, ConcurrentWritersMatchSerialOracle) {
  constexpr int kPrograms = 8;
  std::vector<WriterProgram> programs;
  programs.reserve(kPrograms);
  for (int w = 0; w < kPrograms; ++w) programs.push_back(MakeProgram(w));

  // Serial oracle: one thread applies every program in order.
  std::string oracle;
  {
    auto store = MakeStore();
    auto service = MakeService(store.get());
    Session h = *service->OpenSession(ex_->H);
    ASSERT_TRUE(service->CounterAttach("Hosp", "S", 100, "B", 8, h).ok());
    for (const WriterProgram& p : programs) {
      for (const std::string& sql : p.statements) {
        auto r = service->ExecuteWrite(sql, h);
        ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      }
      ASSERT_TRUE(service->CounterAdd("Hosp", "B", 100, p.counter_add, h).ok());
      ASSERT_TRUE(service->CounterSub("Hosp", "B", 100, p.counter_sub, h).ok());
    }
    ASSERT_TRUE(service->FlushCounters().ok());
    oracle = CanonicalState(*store, {ex_->hosp, ex_->ins});
    ASSERT_FALSE(oracle.empty());
  }

  for (int threads : {1, 2, 8}) {
    auto store = MakeStore();
    auto service = MakeService(store.get());
    Session h = *service->OpenSession(ex_->H);
    Session u = *service->OpenSession(ex_->U);
    ASSERT_TRUE(service->CounterAttach("Hosp", "S", 100, "B", 8, h).ok());

    // A concurrent reader checks statement atomicity on every snapshot it
    // pins: inserts land 3 rows at a time and deletes remove a whole batch,
    // so the 'bulk' row count is a multiple of 3 at every instant.
    std::atomic<bool> stop{false};
    std::atomic<int> atomicity_violations{0};
    std::thread reader([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto resp =
            service->ExecuteSql("select S from Hosp where D = 'bulk'", u);
        if (resp.ok() && resp->table.num_rows() % 3 != 0) {
          atomicity_violations.fetch_add(1);
        }
      }
    });

    std::vector<std::thread> workers;
    workers.reserve(threads);
    std::atomic<int> errors{0};
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        // Thread t runs programs t, t+threads, t+2*threads, ...
        for (int w = t; w < kPrograms; w += threads) {
          const WriterProgram& p = programs[w];
          for (const std::string& sql : p.statements) {
            if (!service->ExecuteWrite(sql, h).ok()) errors.fetch_add(1);
          }
          if (!service->CounterAdd("Hosp", "B", 100, p.counter_add, h).ok()) {
            errors.fetch_add(1);
          }
          if (!service->CounterSub("Hosp", "B", 100, p.counter_sub, h).ok()) {
            errors.fetch_add(1);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    stop.store(true, std::memory_order_release);
    reader.join();

    ASSERT_EQ(errors.load(), 0) << "threads=" << threads;
    EXPECT_EQ(atomicity_violations.load(), 0) << "threads=" << threads;
    ASSERT_TRUE(service->FlushCounters().ok());
    EXPECT_EQ(CanonicalState(*store, {ex_->hosp, ex_->ins}), oracle)
        << "threads=" << threads;
  }
}

TEST_F(WritesTest, MaintenanceThreadSmoke) {
  auto store = MakeStore();
  ASSERT_TRUE(store->MrvAttach(ex_->hosp, /*key_col=*/0, 100,
                               /*value_col=*/1, 8)
                  .ok());
  store->StartMaintenance(/*period_ms=*/1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store->MrvAdd(ex_->hosp, 1, 100, 3).ok());
    ASSERT_TRUE(store->MrvSub(ex_->hosp, 1, 100, 2).ok());
  }
  store->StopMaintenance();
  Result<int64_t> total = store->MrvTotal(ex_->hosp, 1, 100);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 1970 + 50);
  Result<MrvStats> stats = store->MrvStatsFor(ex_->hosp, 1, 100);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->adds, 50u);
  EXPECT_EQ(stats->subs, 50u);
  EXPECT_TRUE(store->MrvCoversColumn(ex_->hosp, 1));
  EXPECT_FALSE(store->MrvCoversColumn(ex_->hosp, 2));
  EXPECT_FALSE(store->MrvCoversColumn(ex_->ins, 1));
}

// ---- Flush vs concurrent counter traffic -----------------------------------

// Hammers FlushCounters from two threads against add-only counter traffic
// while a sampler watches the published cell. Add-only traffic makes the
// live total monotone, so a correctly serialized flush sequence publishes
// non-decreasing cell values; the historical race (totals snapshotted
// outside the writer critical section) let a slow flush overwrite a
// fresher fold with its staler total — the sampler would see the published
// value go backwards, un-publishing committed updates.
TEST_F(WritesTest, FlushVsConcurrentAddsNeverPublishesStaleTotals) {
  auto store = MakeStore();
  ASSERT_TRUE(store->MrvAttach(ex_->hosp, /*key_col=*/0, 100,
                               /*value_col=*/1, 8)
                  .ok());
  // Row of S == 100 in the B column (rows never move: no inserts here).
  // The snapshot must stay pinned while its table is read: a concurrent
  // flush publishing a new snapshot frees the old one otherwise.
  auto published_b = [&]() -> int64_t {
    std::shared_ptr<const Snapshot> pin = store->Current();
    const Table* hosp = pin->Get(ex_->hosp);
    for (size_t r = 0; r < hosp->num_rows(); ++r) {
      if (hosp->col(0).GetValue(r).AsInt() == 100) {
        return hosp->col(1).GetValue(r).AsInt();
      }
    }
    return -1;
  };

  constexpr int kAdders = 4;
  constexpr int kOps = 2000;
  std::atomic<int> add_errors{0};
  std::atomic<int> flush_errors{0};
  std::atomic<int> sampler_violations{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> flushers;
  for (int f = 0; f < 2; ++f) {
    flushers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (!store->FlushCounters().ok()) flush_errors.fetch_add(1);
      }
    });
  }
  std::thread sampler([&] {
    int64_t last = published_b();
    while (!stop.load(std::memory_order_acquire)) {
      int64_t now = published_b();
      if (now < last) sampler_violations.fetch_add(1);
      last = now;
    }
  });
  std::vector<std::thread> adders;
  for (int a = 0; a < kAdders; ++a) {
    adders.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        if (!store->MrvAdd(ex_->hosp, 1, 100, 3).ok()) {
          add_errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : adders) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : flushers) t.join();
  sampler.join();

  EXPECT_EQ(add_errors.load(), 0);
  EXPECT_EQ(flush_errors.load(), 0);
  EXPECT_EQ(sampler_violations.load(), 0);
  // Conservation: the live total is exactly seed + all adds, and a final
  // quiescent flush folds precisely that into the cell (no double-fold,
  // no lost updates).
  const int64_t expected = 1970 + int64_t{kAdders} * kOps * 3;
  ASSERT_TRUE(store->FlushCounters().ok());
  EXPECT_EQ(*store->MrvTotal(ex_->hosp, 1, 100), expected);
  EXPECT_EQ(published_b(), expected);
}

// ---- Cold (segment-backed) relations ----------------------------------------

TEST_F(WritesTest, ColdRelationsDecodeLazilyAndWarmOnWrite) {
  auto store = MakeStore();
  const Table* hot = store->Current()->Get(ex_->hosp);
  ASSERT_NE(hot, nullptr);
  const std::string before = hot->ToString(100);
  const size_t rows = hot->num_rows();

  uint64_t epoch = store->snapshot_epoch();
  Result<uint64_t> cold = store->MakeCold(ex_->hosp, /*rows_per_segment=*/2);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(*cold, epoch);

  std::shared_ptr<const Snapshot> snap = store->Current();
  EXPECT_EQ(snap->tables.count(ex_->hosp), 0u);
  const SegmentedTable* seg = snap->GetCold(ex_->hosp);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->total_rows(), rows);
  EXPECT_GE(seg->num_segments(), 2u);
  EXPECT_GT(seg->encoded_bytes(), 0u);

  // Get() decodes lazily and serves the identical table; repeated calls
  // share the memoized decode.
  const Table* back = snap->Get(ex_->hosp);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->ToString(100), before);
  EXPECT_EQ(snap->Get(ex_->hosp), back);

  // Idempotent: re-demoting a cold relation keeps the snapshot as is.
  Result<uint64_t> again = store->MakeCold(ex_->hosp, 2);
  ASSERT_TRUE(again.ok());

  // The untouched relation stayed hot, and unknown relations error.
  EXPECT_NE(store->Current()->tables.count(ex_->ins), 0u);
  EXPECT_FALSE(store->MakeCold(static_cast<RelId>(999), 2).ok());

  // A write warms the relation: the mutation sees the decoded rows and the
  // new version is a plain table again.
  Result<uint64_t> warmed = store->Mutate(ex_->hosp, [](Table* t) {
    t->AddRow({Cell(Value(int64_t{300})), Cell(Value(int64_t{3000})),
               Cell(Value(std::string("flu"))),
               Cell(Value(std::string("rest")))});
    return Status::OK();
  });
  ASSERT_TRUE(warmed.ok()) << warmed.status().ToString();
  std::shared_ptr<const Snapshot> after = store->Current();
  EXPECT_EQ(after->cold.count(ex_->hosp), 0u);
  ASSERT_NE(after->Get(ex_->hosp), nullptr);
  EXPECT_EQ(after->Get(ex_->hosp)->num_rows(), rows + 1);
  // The pinned cold snapshot is unaffected by the warm-up publish.
  EXPECT_EQ(snap->Get(ex_->hosp)->num_rows(), rows);
}

TEST_F(WritesTest, QueriesReadColdRelationsTransparently) {
  auto store = MakeStore();
  auto service = MakeService(store.get());
  Session u = *service->OpenSession(ex_->U);
  const std::string sql = "select S from Hosp where D = 'flu'";

  auto warm_resp = service->ExecuteSql(sql, u);
  ASSERT_TRUE(warm_resp.ok()) << warm_resp.status().ToString();
  ASSERT_GT(warm_resp->table.num_rows(), 0u);
  const std::string warm = warm_resp->table.ToString(100);

  ASSERT_TRUE(store->MakeCold(ex_->hosp, /*rows_per_segment=*/1).ok());
  auto cold_resp = service->ExecuteSql(sql, u);
  ASSERT_TRUE(cold_resp.ok()) << cold_resp.status().ToString();
  EXPECT_EQ(cold_resp->table.ToString(100), warm);
}

}  // namespace
}  // namespace mpq
