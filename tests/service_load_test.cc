// Serving under load on the real ExecuteAsync path, over the TPC-H UAPenc
// serving mix: exact queue-depth shedding against a parked pool, repeatable
// burst accounting, and provider-crash failover while async queries run
// concurrently. Gates are accounting and response identity only, never wall
// clock, so they hold on a 1-core host and under the sanitizers.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/failover.h"
#include "net/simnet.h"
#include "profile/propagate.h"
#include "service/query_service.h"
#include "sql/binder.h"
#include "table_identity.h"
#include "tpch/dbgen.h"
#include "tpch/scenarios.h"

namespace mpq {
namespace {

using testing::ExpectTablesIdentical;

/// Accepted queries of one burst: the statement each ran and its response.
struct BurstOutcome {
  std::vector<size_t> stmt;
  std::vector<Table> tables;
  size_t shed = 0;
};

class ServiceLoadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = GenerateTpch(env_, /*data_sf=*/5e-5, /*seed=*/17);
    Result<Policy> policy = MakeScenarioPolicy(env_, AuthScenario::kUAPenc);
    ASSERT_TRUE(policy.ok()) << policy.status().ToString();
    policy_ = std::make_unique<Policy>(std::move(*policy));
    prices_ = MakeScenarioPricing(env_);
    topo_ = MakeScenarioTopology(env_);
  }

  std::unique_ptr<QueryService> MakeService(const ServiceConfig& config) {
    auto service = std::make_unique<QueryService>(
        &env_.catalog, &env_.subjects, policy_.get(), &prices_, &topo_,
        config);
    for (const auto& [rel, t] : db_.tables) service->LoadTable(rel, &t);
    return service;
  }

  /// Prepares the mix and runs each statement cold, then warm; the warm
  /// synchronous responses are the references async responses must match.
  void PrepareMix(QueryService* service, const Session& session,
                  std::vector<StatementHandle>* handles,
                  std::vector<Table>* refs) {
    for (const std::string& sql : ServingMixSql()) {
      auto h = service->Prepare(sql);
      ASSERT_TRUE(h.ok()) << h.status().ToString();
      ASSERT_TRUE(service->Execute(*h, session).ok());  // cold
      auto warm = service->Execute(*h, session);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      handles->push_back(*h);
      refs->push_back(std::move(warm->table));
    }
  }

  /// Parks all `workers` pool threads, submits `burst` ExecuteAsync calls
  /// cycling through `handles`, then releases the workers and collects
  /// every accepted response. No query can start before the whole burst is
  /// submitted, so the shed decision depends on the queue-depth cap alone.
  void RunParkedBurst(QueryService* service, const Session& session,
                      const std::vector<StatementHandle>& handles,
                      size_t workers, size_t burst, BurstOutcome* out) {
    // Heap-held: a parked worker may still be leaving its spin loop after
    // this call returns, and must not then read a later burst's gate.
    struct Gate {
      std::atomic<size_t> entered{0};
      std::atomic<bool> release{false};
    };
    auto gate = std::make_shared<Gate>();
    for (size_t i = 0; i < workers; ++i) {
      ASSERT_TRUE(service->pool()->Submit([gate] {
        gate->entered.fetch_add(1);
        while (!gate->release.load()) std::this_thread::yield();
      }));
    }
    while (gate->entered.load() < workers) std::this_thread::yield();

    std::vector<std::shared_ptr<AsyncQuery>> accepted;
    for (size_t i = 0; i < burst; ++i) {
      size_t s = i % handles.size();
      auto q = service->ExecuteAsync(handles[s], session);
      if (q.ok()) {
        accepted.push_back(*q);
        out->stmt.push_back(s);
      } else {
        EXPECT_EQ(q.status().code(), StatusCode::kUnavailable);
        ++out->shed;
      }
    }
    gate->release.store(true);
    for (const auto& q : accepted) {
      const Result<QueryResponse>& r = q->Wait();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      out->tables.push_back(r->table);
    }
  }

  TpchEnv env_ = MakeTpchEnv(/*costing_sf=*/1.0, /*num_providers=*/8);
  TpchData db_;
  std::unique_ptr<Policy> policy_;
  PricingTable prices_;
  Topology topo_;
};

TEST_F(ServiceLoadTest, TpchBurstShedsExactlyAtCapAndMatchesSync) {
  ServiceConfig config;
  config.exec_threads = 2;
  config.max_in_flight = 4;
  config.max_queue_depth = 16;
  auto service = MakeService(config);
  auto session = service->OpenSession(env_.user);
  ASSERT_TRUE(session.ok());
  std::vector<StatementHandle> handles;
  std::vector<Table> refs;
  PrepareMix(service.get(), *session, &handles, &refs);
  ServiceMetrics m0 = service->Metrics();

  BurstOutcome burst;
  RunParkedBurst(service.get(), *session, handles, config.exec_threads, 64,
                 &burst);
  EXPECT_EQ(burst.stmt.size(), 16u);
  EXPECT_EQ(burst.shed, 48u);
  ServiceMetrics m1 = service->Metrics();
  EXPECT_EQ(m1.sheds - m0.sheds, burst.shed);
  EXPECT_EQ(m1.async_queries - m0.async_queries, burst.stmt.size());
  EXPECT_EQ(m1.errors, m0.errors);
  ASSERT_EQ(burst.tables.size(), burst.stmt.size());
  for (size_t i = 0; i < burst.tables.size(); ++i) {
    ExpectTablesIdentical(burst.tables[i], refs[burst.stmt[i]],
                          "burst vs warm sync");
  }
}

TEST_F(ServiceLoadTest, BurstAccountingRepeatsExactly) {
  ServiceConfig config;
  config.exec_threads = 2;
  config.max_in_flight = 4;
  config.max_queue_depth = 16;
  auto service = MakeService(config);
  auto session = service->OpenSession(env_.user);
  ASSERT_TRUE(session.ok());
  std::vector<StatementHandle> handles;
  std::vector<Table> refs;
  PrepareMix(service.get(), *session, &handles, &refs);

  BurstOutcome a, b;
  RunParkedBurst(service.get(), *session, handles, config.exec_threads, 64,
                 &a);
  RunParkedBurst(service.get(), *session, handles, config.exec_threads, 64,
                 &b);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.stmt, b.stmt);
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (size_t i = 0; i < a.tables.size(); ++i) {
    ExpectTablesIdentical(a.tables[i], b.tables[i], "repeated burst");
  }
}

TEST_F(ServiceLoadTest, ProviderCrashUnderAsyncLoadFailsOver) {
  SimNet net(&env_.subjects);
  net.ConfigureFromTopology(topo_, env_.subjects, 0);
  ServiceConfig config;
  config.exec_threads = 2;
  config.max_in_flight = 2;
  config.net = &net;
  auto service = MakeService(config);
  auto session = service->OpenSession(env_.user);
  ASSERT_TRUE(session.ok());
  const std::vector<std::string>& mix = ServingMixSql();
  std::vector<StatementHandle> handles;
  std::vector<Table> refs;  // fault-free references
  PrepareMix(service.get(), *session, &handles, &refs);

  // Probe Q6's minimum-cost assignment for a provider step to kill (the
  // service chose the same plan over the same inputs).
  int crash_step = -1;
  SubjectId victim = kInvalidSubject;
  {
    auto plan = PlanFromSql(mix[0], env_.catalog);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(
        DerivePlaintextNeeds(plan->get(), env_.catalog, SchemeCaps{}).ok());
    ASSERT_TRUE(AnnotatePlan(plan->get(), env_.catalog).ok());
    SimNet probe_net(&env_.subjects);
    FailoverExecutor probe(&env_.catalog, &env_.subjects, policy_.get(),
                           &prices_, &topo_, &probe_net, FailoverConfig{});
    for (const auto& [rel, t] : db_.tables) probe.LoadTable(rel, &t);
    auto probed = probe.Execute(plan->get(), env_.user);
    ASSERT_TRUE(probed.ok());
    for (const auto& [node_id, subject] :
         probed->assignment.extended.assignment) {
      if (env_.subjects.Get(subject).kind == SubjectKind::kProvider) {
        crash_step = node_id;
        victim = subject;
        break;
      }
    }
  }
  ASSERT_NE(victim, kInvalidSubject);
  FaultPlan faults;
  faults.crash_at_step[victim] = crash_step;
  net.SetFaultPlan(faults);
  ServiceMetrics m0 = service->Metrics();

  // Waves of concurrent async queries; restoring the victim before each
  // wave lets the armed crash fire again while the wave runs.
  constexpr size_t kWaves = 6, kPerWave = 10;
  size_t completed = 0, shed = 0, errors = 0;
  for (size_t wave = 0; wave < kWaves; ++wave) {
    net.Restore(victim);
    std::vector<std::shared_ptr<AsyncQuery>> accepted;
    std::vector<size_t> stmt;
    for (size_t i = 0; i < kPerWave; ++i) {
      size_t s = (wave * kPerWave + i) % handles.size();
      auto q = service->ExecuteAsync(handles[s], *session);
      if (q.ok()) {
        accepted.push_back(*q);
        stmt.push_back(s);
      } else {
        EXPECT_EQ(q.status().code(), StatusCode::kUnavailable);
        ++shed;
      }
    }
    for (size_t i = 0; i < accepted.size(); ++i) {
      const Result<QueryResponse>& r = accepted[i]->Wait();
      if (!r.ok()) {
        ADD_FAILURE() << r.status().ToString();
        ++errors;
        continue;
      }
      ++completed;
      // Exact: results reach the user in plaintext, so a recovered
      // response must equal the fault-free one byte for byte.
      ExpectTablesIdentical(r->table, refs[stmt[i]], "failover under load");
    }
  }
  EXPECT_EQ(completed + shed + errors, kWaves * kPerWave);
  EXPECT_EQ(errors, 0u);
  EXPECT_GT(completed, 0u);
  EXPECT_GE(service->Metrics().failovers - m0.failovers, 1u);
}

}  // namespace
}  // namespace mpq
