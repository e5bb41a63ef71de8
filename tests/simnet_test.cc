// Tests for the simulated network and the failover machinery: link timing,
// seeded fault determinism, channel mailboxes, and the fault matrix — a
// seeded provider crash at every dispatch step of the paper example's
// optimizer-chosen plan, at 1/2/8 threads, always recovering to a result
// identical to the fault-free run via an authorized alternative assignment,
// with no stale-policy execution after failover.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exec/failover.h"
#include "net/channel.h"
#include "net/simnet.h"
#include "paper_example.h"
#include "service/query_service.h"
#include "testing/reference_exec.h"

namespace mpq {
namespace {

using testing::MakePaperExample;
using testing::PaperExample;

// ---------------------------------------------------------------- SimNet ---

TEST(SimNetTest, LinkTimingAccountsLatencyAndBandwidth) {
  SimNet net;
  net.SetDefaultLink(LinkParams{0.010, 8000.0});  // 10 ms, 1 KB/s
  auto d = net.Deliver(0, 1, /*bytes=*/1000, /*step=*/0, NetPolicy{});
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->attempts, 1);
  EXPECT_NEAR(d->virtual_s, 0.010 + 1.0, 1e-9);  // 1000 B at 1 KB/s = 1 s
  EXPECT_EQ(net.GetStats().messages, 1u);
  EXPECT_EQ(net.GetStats().bytes_delivered, 1000u);
}

TEST(SimNetTest, DropDecisionsAreSeededDeterministic) {
  FaultPlan faults;
  faults.seed = 99;
  faults.drop_prob = 0.5;
  NetPolicy policy;
  policy.max_attempts = 10;

  auto run = [&] {
    SimNet net;
    net.SetFaultPlan(faults);
    std::vector<int> attempts;
    for (int step = 0; step < 64; ++step) {
      auto d = net.Deliver(0, 1, 100, step, policy);
      attempts.push_back(d.ok() ? d->attempts : -1);
    }
    return attempts;
  };
  // Identical fault plans make identical decisions, delivery after delivery.
  EXPECT_EQ(run(), run());

  // A different seed makes different decisions somewhere in 64 edges.
  auto first = run();
  faults.seed = 100;
  EXPECT_NE(first, run());
}

TEST(SimNetTest, CrashAtStepFiresExactlyThere) {
  SubjectRegistry subjects;
  SubjectId p = *subjects.Register("P", SubjectKind::kProvider);
  SimNet net(&subjects);
  FaultPlan faults;
  faults.crash_at_step[p] = 7;
  net.SetFaultPlan(faults);

  EXPECT_TRUE(net.BeginStep(p, 3).ok());
  EXPECT_TRUE(net.Alive(p));
  Status at7 = net.BeginStep(p, 7);
  EXPECT_EQ(at7.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(net.Alive(p));
  // Once down, every step and every delivery touching p fails.
  EXPECT_FALSE(net.BeginStep(p, 3).ok());
  EXPECT_EQ(net.Deliver(p, 1, 10, 8, NetPolicy{}).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(net.Deliver(1, p, 10, 8, NetPolicy{}).status().code(),
            StatusCode::kUnavailable);
  ASSERT_EQ(net.DownSubjects().size(), 1u);
  EXPECT_EQ(net.DownSubjects()[0], p);
}

TEST(SimNetTest, RetryExhaustionSuspectsTheProviderPeer) {
  SubjectRegistry subjects;
  SubjectId a = *subjects.Register("A", SubjectKind::kAuthority);
  SubjectId p = *subjects.Register("P", SubjectKind::kProvider);
  SimNet net(&subjects);
  FaultPlan faults;
  faults.drop_prob = 1.0;  // every attempt dropped
  net.SetFaultPlan(faults);
  NetPolicy policy;
  policy.max_attempts = 3;

  auto d = net.Deliver(a, p, 500, /*step=*/4, policy);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kUnavailable);
  // The excludable peer (the provider) is suspected dead; the authority
  // stays up. All three attempts' bytes were wasted.
  EXPECT_FALSE(net.Alive(p));
  EXPECT_TRUE(net.Alive(a));
  SimNetStats stats = net.GetStats();
  EXPECT_EQ(stats.drops, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.wasted_bytes, 1500u);
  EXPECT_EQ(stats.messages, 0u);
}

TEST(SimNetTest, FragmentDeadlineBudgetIsEnforced) {
  SubjectRegistry subjects;
  SubjectId u = *subjects.Register("U", SubjectKind::kUser);
  SubjectId p = *subjects.Register("P", SubjectKind::kProvider);
  SimNet net(&subjects);
  net.SetDefaultLink(LinkParams{0.5, 0});  // half a second of latency
  NetPolicy policy;
  policy.max_attempts = 1;
  policy.fragment_deadline_s = 0.1;

  auto d = net.Deliver(p, u, 10, /*step=*/0, policy);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(net.Alive(p));  // the provider peer takes the blame

  // A generous budget passes.
  SimNet net2(&subjects);
  net2.SetDefaultLink(LinkParams{0.5, 0});
  policy.fragment_deadline_s = 2.0;
  EXPECT_TRUE(net2.Deliver(p, u, 10, 0, policy).ok());
}

TEST(ChannelTest, SlotsDeliverInOperandOrder) {
  Channel ch(2);
  Table t1;
  t1.AddRow({});
  Envelope e1;
  e1.slot = 1;
  e1.from_node = 5;
  e1.payload = std::move(t1);
  ch.Send(std::move(e1));
  EXPECT_EQ(ch.pending(), 1u);
  EXPECT_FALSE(ch.TryRecv(0).has_value());

  Envelope e0;
  e0.slot = 0;
  e0.from_node = 3;
  ch.Send(std::move(e0));
  auto got0 = ch.TryRecv(0);
  auto got1 = ch.TryRecv(1);
  ASSERT_TRUE(got0.has_value());
  ASSERT_TRUE(got1.has_value());
  EXPECT_EQ(got0->from_node, 3);
  EXPECT_EQ(got1->from_node, 5);
  EXPECT_EQ(got1->payload.num_rows(), 1u);
  EXPECT_EQ(ch.pending(), 0u);
}

// ---------------------------------------------------------- fault matrix ---

/// Fixture: the paper example behind a FailoverExecutor on a configurable
/// SimNet.
class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = MakePaperExample();
    plan_ = ex_->BuildQueryPlan();
    prices_ = PricingTable::PaperDefaults(ex_->subjects);
    topo_ = Topology::PaperDefaults(ex_->subjects);
    hosp_data_ = ex_->HospData();
    ins_data_ = ex_->InsData();
  }

  /// Runs the full optimize→execute pipeline against `net` on `sched`.
  Result<FailoverOutcome> RunPipeline(SimNet* net, MorselScheduler* sched) {
    FailoverConfig cfg;
    cfg.morsels = sched;
    FailoverExecutor exec(&ex_->catalog, &ex_->subjects, ex_->policy.get(),
                          &prices_, &topo_, net, cfg);
    exec.LoadTable(ex_->hosp, &hosp_data_);
    exec.LoadTable(ex_->ins, &ins_data_);
    return exec.Execute(plan_.get(), ex_->U);
  }

  bool IsProvider(SubjectId s) const {
    return ex_->subjects.Get(s).kind == SubjectKind::kProvider;
  }

  std::unique_ptr<PaperExample> ex_;
  PlanPtr plan_;
  PricingTable prices_;
  Topology topo_;
  Table hosp_data_;
  Table ins_data_;
};

TEST_F(FaultMatrixTest, CrashAtEveryProviderStepRecoversIdentically) {
  // Fault-free baseline (also yields the steps each provider executes).
  SimNet clean(&ex_->subjects);
  auto baseline = RunPipeline(&clean, nullptr);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->failovers, 0u);
  std::vector<std::string> want = CanonicalRows(baseline->result.result);

  // The plaintext oracle agrees with the fault-free distributed run.
  ReferenceExecutor oracle(&ex_->catalog);
  oracle.LoadTable(ex_->hosp, &hosp_data_);
  oracle.LoadTable(ex_->ins, &ins_data_);
  auto oracle_result = oracle.Run(plan_.get());
  ASSERT_TRUE(oracle_result.ok()) << oracle_result.status().ToString();
  EXPECT_EQ(CanonicalRows(*oracle_result), want);

  // Every dispatch step of the extended plan that lands on a provider, ×
  // {1, 2, 8} threads: crash the assignee exactly there; the runtime must
  // re-plan around it and produce the identical table.
  std::vector<std::pair<int, SubjectId>> provider_steps;
  for (const auto& [node_id, subject] :
       baseline->assignment.extended.assignment) {
    if (IsProvider(subject)) provider_steps.emplace_back(node_id, subject);
  }
  ASSERT_FALSE(provider_steps.empty())
      << "optimizer routed nothing to providers; matrix is vacuous";

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads == 1 ? 0 : threads);
    MorselScheduler sched(&pool);
    for (const auto& [step, subject] : provider_steps) {
      SimNet net(&ex_->subjects);
      FaultPlan faults;
      faults.crash_at_step[subject] = step;
      net.SetFaultPlan(faults);

      auto recovered = RunPipeline(&net, &sched);
      ASSERT_TRUE(recovered.ok())
          << "threads=" << threads << " crash@" << step << " of "
          << ex_->subjects.Name(subject) << ": "
          << recovered.status().ToString();
      EXPECT_GE(recovered->failovers, 1u);
      // The dead provider is excluded from the recovery assignment.
      for (const auto& [n, s] : recovered->assignment.extended.assignment) {
        EXPECT_NE(s, subject) << "node " << n << " still at the dead subject";
      }
      EXPECT_EQ(CanonicalRows(recovered->result.result), want)
          << "threads=" << threads << " crash@" << step;
    }
  }
}

TEST_F(FaultMatrixTest, RootStepCrashAccountsRetransferBytes) {
  // Crash the root's assignee at the root step: by then every operand edge
  // has delivered, so the abandoned attempt's bytes show up as retransfer.
  SimNet clean(&ex_->subjects);
  auto baseline = RunPipeline(&clean, nullptr);
  ASSERT_TRUE(baseline.ok());
  SubjectId root_subject =
      baseline->assignment.extended.assignment.at(plan_->id);
  if (!IsProvider(root_subject)) {
    GTEST_SKIP() << "root not at a provider under this pricing";
  }

  SimNet net(&ex_->subjects);
  FaultPlan faults;
  faults.crash_at_step[root_subject] = plan_->id;
  net.SetFaultPlan(faults);
  auto recovered = RunPipeline(&net, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GE(recovered->failovers, 1u);
  EXPECT_GT(recovered->retransfer_bytes, 0u);
  EXPECT_EQ(CanonicalRows(recovered->result.result),
            CanonicalRows(baseline->result.result));
}

TEST_F(FaultMatrixTest, AuthorityCrashIsTerminal) {
  // A data authority cannot be routed around: its leaves cannot move.
  SimNet net(&ex_->subjects);
  net.Crash(ex_->H);
  auto r = RunPipeline(&net, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TEST_F(FaultMatrixTest, FailoverReplansUnderCurrentPolicyNotTheStaleOne) {
  // The plan is optimized while provider Y is still authorized; Y's grants
  // are then revoked *and* the plan's primary provider crashes. Recovery
  // must re-enter candidates under the current policy: the dead provider is
  // excluded by the network, the revoked one by authorization — neither may
  // execute anything.
  SimNet clean(&ex_->subjects);
  auto baseline = RunPipeline(&clean, nullptr);
  ASSERT_TRUE(baseline.ok());
  std::vector<std::pair<int, SubjectId>> provider_steps;
  for (const auto& [node_id, subject] :
       baseline->assignment.extended.assignment) {
    if (IsProvider(subject)) provider_steps.emplace_back(node_id, subject);
  }
  ASSERT_FALSE(provider_steps.empty());
  auto [crash_step, crash_subject] = provider_steps.front();

  // Revoke every other provider's grants (epoch advances), then crash.
  for (SubjectId p : {ex_->X, ex_->Y, ex_->Z}) {
    if (p == crash_subject) continue;
    ASSERT_TRUE(ex_->policy->Revoke(ex_->hosp, p).ok());
    ASSERT_TRUE(ex_->policy->Revoke(ex_->ins, p).ok());
  }
  SimNet net(&ex_->subjects);
  FaultPlan faults;
  faults.crash_at_step[crash_subject] = crash_step;
  net.SetFaultPlan(faults);

  auto recovered = RunPipeline(&net, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GE(recovered->failovers, 1u);
  for (const auto& [n, s] : recovered->assignment.extended.assignment) {
    EXPECT_FALSE(IsProvider(s))
        << "node " << n << " executed at a dead or revoked provider";
  }
  // Identical answer, via an assignment verified against the current policy
  // (FailoverExecutor re-verifies internally; check once more here).
  EXPECT_TRUE(VerifyAuthorizedAssignment(recovered->assignment.extended,
                                         *ex_->policy)
                  .ok());
  EXPECT_EQ(CanonicalRows(recovered->result.result),
            CanonicalRows(baseline->result.result));
}

// -------------------------------------------------- serving-layer failover --

TEST(ServiceFailoverTest, CachedPlanFailsOverMidRunAndRetiresStaleEntry) {
  auto ex = MakePaperExample();
  PricingTable prices = PricingTable::PaperDefaults(ex->subjects);
  Topology topo = Topology::PaperDefaults(ex->subjects);
  Table hosp = ex->HospData();
  Table ins = ex->InsData();
  PlanPtr plan = ex->BuildQueryPlan();

  // Probe which provider steps the optimizer picks (the service runs the
  // same minimum-cost pipeline over the same inputs).
  SimNet probe_net(&ex->subjects);
  FailoverExecutor probe(&ex->catalog, &ex->subjects, ex->policy.get(),
                         &prices, &topo, &probe_net, FailoverConfig{});
  probe.LoadTable(ex->hosp, &hosp);
  probe.LoadTable(ex->ins, &ins);
  auto probed = probe.Execute(plan.get(), ex->U);
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  int crash_step = -1;
  SubjectId victim = kInvalidSubject;
  for (const auto& [node_id, subject] :
       probed->assignment.extended.assignment) {
    if (ex->subjects.Get(subject).kind == SubjectKind::kProvider) {
      crash_step = node_id;
      victim = subject;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidSubject) << "optimizer used no provider";

  SimNet net(&ex->subjects);
  ServiceConfig config;
  config.net = &net;
  QueryService service(&ex->catalog, &ex->subjects, ex->policy.get(), &prices,
                       &topo, config);
  service.LoadTable(ex->hosp, &hosp);
  service.LoadTable(ex->ins, &ins);
  auto session = service.OpenSession(ex->U);
  ASSERT_TRUE(session.ok());
  const std::string sql =
      "select T, avg(P) from Hosp join Ins on S = C "
      "where D = 'stroke' group by T having avg(P) > 100";

  auto cold = service.ExecuteSql(sql, *session);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->stats.failovers, 0u);

  // Arm the crash only now: the cached plan's provider dies mid-run of the
  // next (cache-hit) request, which recovers through an authorized
  // alternative in-request. Same bits, ≥1 failover, current policy epoch.
  FaultPlan faults;
  faults.crash_at_step[victim] = crash_step;
  net.SetFaultPlan(faults);
  auto recovered = service.ExecuteSql(sql, *session);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->stats.cache, CacheOutcome::kHit);
  EXPECT_GE(recovered->stats.failovers, 1u);
  EXPECT_EQ(recovered->stats.policy_epoch, ex->policy->epoch());
  EXPECT_EQ(CanonicalRows(recovered->table), CanonicalRows(cold->table));
  EXPECT_GE(service.Metrics().failovers, 1u);

  // The crash advanced the net's liveness epoch and the stale entry was
  // retired: the next request re-plans (miss) and routes around the dead
  // provider up front — no failover needed.
  auto replanned = service.ExecuteSql(sql, *session);
  ASSERT_TRUE(replanned.ok()) << replanned.status().ToString();
  EXPECT_EQ(replanned->stats.cache, CacheOutcome::kMiss);
  EXPECT_EQ(replanned->stats.failovers, 0u);
  EXPECT_EQ(CanonicalRows(replanned->table), CanonicalRows(cold->table));

  // Liveness-epoch keying works the other way too: once the provider is
  // restored, the routed-around plan stops being served and the service
  // re-plans back onto the (cheaper) full provider set.
  net.Restore(victim);
  net.SetFaultPlan(FaultPlan{});
  auto healed = service.ExecuteSql(sql, *session);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed->stats.cache, CacheOutcome::kMiss);
  EXPECT_EQ(healed->stats.failovers, 0u);
  EXPECT_EQ(CanonicalRows(healed->table), CanonicalRows(cold->table));
}

}  // namespace
}  // namespace mpq
