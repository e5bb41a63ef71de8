// Tests for the TPC-H substrate: schema/env, dbgen integrity, the 22 query
// shapes, authorization scenarios, and end-to-end optimize+execute runs.

#include <gtest/gtest.h>

#include "assign/assignment.h"
#include "exec/executor.h"
#include "profile/propagate.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/scenarios.h"

namespace mpq {
namespace {

class TpchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<TpchEnv>(MakeTpchEnv(1.0, 3));
  }
  std::unique_ptr<TpchEnv> env_;
};

TEST_F(TpchTest, EnvHasEightRelationsAndSubjects) {
  EXPECT_EQ(env_->catalog.num_relations(), 8u);
  EXPECT_EQ(env_->subjects.size(), 6u);  // U, 2 authorities, 3 providers
  EXPECT_EQ(env_->catalog.Get(env_->lineitem).owner, env_->auth_supp);
  EXPECT_EQ(env_->catalog.Get(env_->orders).owner, env_->auth_cust);
  EXPECT_EQ(env_->catalog.Get(env_->supplier).owner, env_->auth_supp);
}

TEST_F(TpchTest, CardinalitiesFollowSf) {
  EXPECT_DOUBLE_EQ(TpchRows(*env_, env_->region, 1.0), 5);
  EXPECT_DOUBLE_EQ(TpchRows(*env_, env_->lineitem, 1.0), 6000000);
  EXPECT_DOUBLE_EQ(TpchRows(*env_, env_->orders, 0.001), 1500);
  // base_rows in the catalog match SF1.
  EXPECT_DOUBLE_EQ(env_->catalog.Get(env_->customer).base_rows, 150000);
}

class TpchQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchQueryTest, BuildsValidatesAndAnnotates) {
  TpchEnv env = MakeTpchEnv(1.0, 3);
  auto plan = BuildTpchQuery(GetParam(), env);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(
      DerivePlaintextNeeds(plan->get(), env.catalog, SchemeCaps{}).ok());
  ASSERT_TRUE(AnnotatePlan(plan->get(), env.catalog).ok());
  EXPECT_GE(CountNodes(plan->get()), 3);
}

TEST_P(TpchQueryTest, HasCandidatesUnderUAPenc) {
  TpchEnv env = MakeTpchEnv(1.0, 3);
  auto plan = BuildTpchQuery(GetParam(), env);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(
      DerivePlaintextNeeds(plan->get(), env.catalog, SchemeCaps{}).ok());
  auto policy = MakeScenarioPolicy(env, AuthScenario::kUAPenc);
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  auto cp = ComputeCandidates(plan->get(), *policy);
  EXPECT_TRUE(cp.ok()) << "Q" << GetParam() << ": " << cp.status().ToString();
}

TEST_P(TpchQueryTest, ExecutesOnTinyData) {
  TpchEnv env = MakeTpchEnv(1.0, 3);
  auto plan = BuildTpchQuery(GetParam(), env);
  ASSERT_TRUE(plan.ok());
  TpchData db = GenerateTpch(env, /*data_sf=*/0.0005, /*seed=*/7);
  KeyRing ring;
  CryptoPlan crypto;
  ExecContext ctx;
  ctx.catalog = &env.catalog;
  for (const auto& [rel, table] : db.tables) ctx.base_tables[rel] = &table;
  ctx.keyring = &ring;
  ctx.crypto = &crypto;
  Result<Table> t = ExecutePlan(plan->get(), &ctx);
  ASSERT_TRUE(t.ok()) << "Q" << GetParam() << ": " << t.status().ToString();
}

// The Fig 9 shape: UAPmix ≤ UAPenc ≤ UA on every query.
TEST_P(TpchQueryTest, ScenarioCostOrdering) {
  TpchEnv env = MakeTpchEnv(1.0, 3);
  auto plan = BuildTpchQuery(GetParam(), env);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(
      DerivePlaintextNeeds(plan->get(), env.catalog, SchemeCaps{}).ok());
  PricingTable prices = MakeScenarioPricing(env);
  Topology topo = MakeScenarioTopology(env);
  SchemeMap schemes = AnalyzeSchemes(plan->get(), env.catalog, SchemeCaps{});
  CostModel cm(&env.catalog, &prices, &topo, &schemes);

  double costs[3];
  AuthScenario scenarios[] = {AuthScenario::kUA, AuthScenario::kUAPenc,
                              AuthScenario::kUAPmix};
  for (int i = 0; i < 3; ++i) {
    auto policy = MakeScenarioPolicy(env, scenarios[i]);
    ASSERT_TRUE(policy.ok());
    auto cp = ComputeCandidates(plan->get(), *policy);
    ASSERT_TRUE(cp.ok()) << cp.status().ToString();
    AssignmentOptimizer opt(&*policy, &cm);
    auto r = opt.Optimize(plan->get(), *cp, env.user);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    costs[i] = r->exact_cost.total_usd();
  }
  EXPECT_LE(costs[1], costs[0]) << "Q" << GetParam();  // UAPenc ≤ UA
  // UAPmix ≤ UAPenc (tolerance)
  EXPECT_LE(costs[2], costs[1] * 1.001) << "Q" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchQueryTest, ::testing::Range(1, 23));

TEST_F(TpchTest, InvalidQueryNumberRejected) {
  EXPECT_FALSE(BuildTpchQuery(0, *env_).ok());
  EXPECT_FALSE(BuildTpchQuery(23, *env_).ok());
  EXPECT_EQ(NumTpchQueries(), 22);
}

TEST_F(TpchTest, DbgenReferentialIntegrity) {
  TpchData db = GenerateTpch(*env_, 0.001, 42);
  const Table& orders = db.at(env_->orders);
  const Table& cust = db.at(env_->customer);
  // Every o_custkey exists in customer.
  int64_t max_cust = static_cast<int64_t>(cust.num_rows());
  int ck = orders.ColIndex(env_->catalog.attrs().Find("o_custkey"));
  ASSERT_GE(ck, 0);
  for (size_t r = 0; r < orders.num_rows(); ++r) {
    int64_t v = orders.row(r)[static_cast<size_t>(ck)].plain().AsInt();
    EXPECT_GE(v, 1);
    EXPECT_LE(v, max_cust);
  }
}

TEST_F(TpchTest, DbgenDeterministicPerSeed) {
  TpchData a = GenerateTpch(*env_, 0.0005, 9);
  TpchData b = GenerateTpch(*env_, 0.0005, 9);
  EXPECT_EQ(a.at(env_->lineitem).num_rows(), b.at(env_->lineitem).num_rows());
  EXPECT_EQ(a.at(env_->lineitem).row(0)[5].plain(),
            b.at(env_->lineitem).row(0)[5].plain());
  TpchData c = GenerateTpch(*env_, 0.0005, 10);
  EXPECT_NE(a.at(env_->lineitem).row(0)[5].plain(),
            c.at(env_->lineitem).row(0)[5].plain());
}

TEST_F(TpchTest, ScenarioPoliciesDiffer) {
  auto ua = MakeScenarioPolicy(*env_, AuthScenario::kUA);
  auto enc = MakeScenarioPolicy(*env_, AuthScenario::kUAPenc);
  auto mix = MakeScenarioPolicy(*env_, AuthScenario::kUAPmix);
  ASSERT_TRUE(ua.ok() && enc.ok() && mix.ok());
  SubjectId p1 = env_->providers[0];
  // UA: provider sees nothing.
  EXPECT_TRUE(ua->PlainView(p1).empty());
  EXPECT_TRUE(ua->EncView(p1).empty());
  // UAPenc: provider sees everything encrypted only.
  EXPECT_TRUE(enc->PlainView(p1).empty());
  EXPECT_EQ(enc->EncView(p1).size(),
            env_->catalog.attrs().size());
  // UAPmix: provider sees roughly half plaintext.
  EXPECT_GT(mix->PlainView(p1).size(), 0u);
  EXPECT_GT(mix->EncView(p1).size(), 0u);
  EXPECT_EQ(mix->PlainView(p1).size() + mix->EncView(p1).size(),
            env_->catalog.attrs().size());
}

TEST_F(TpchTest, UdfQueryBuildsAndExecutes) {
  auto plan = BuildUdfQuery(*env_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  TpchData db = GenerateTpch(*env_, 0.0005, 3);
  KeyRing ring;
  CryptoPlan crypto;
  ExecContext ctx;
  ctx.catalog = &env_->catalog;
  for (const auto& [rel, table] : db.tables) ctx.base_tables[rel] = &table;
  ctx.keyring = &ring;
  ctx.crypto = &crypto;
  Result<Table> t = ExecutePlan(plan->get(), &ctx);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_GT(t->num_rows(), 0u);
}

}  // namespace
}  // namespace mpq
