// Metamorphic properties of the execution engine: for seeded random
// catalogs/data, semantically equivalent plan pairs must produce identical
// results — filter conjunction splitting, projection/selection reordering,
// join commutativity. Every equivalence is checked through the row-path
// plaintext oracle AND the columnar engine at 1/2/8 worker threads, so a
// violation isolates either an operator-rewrite bug (engine diverges from
// oracle) or a genuine algebra bug (both diverge from the equivalence).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/plan_builder.h"
#include "common/rng.h"
#include "exec/morsel.h"
#include "testing/random_plan.h"
#include "testing/reference_exec.h"

namespace mpq {
namespace {

constexpr uint64_t kNumSeeds = 100;

class MetamorphicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pools_.push_back(std::make_unique<ThreadPool>(1));
    pools_.push_back(std::make_unique<ThreadPool>(2));
    pools_.push_back(std::make_unique<ThreadPool>(8));
  }

  struct Env {
    RandomScenario sc;
    std::map<RelId, Table> data;
  };

  Result<Env> MakeEnv(uint64_t seed) {
    Env env;
    MPQ_ASSIGN_OR_RETURN(env.sc, MakeRandomScenario(seed));
    env.data = MakeRandomData(env.sc, seed ^ 0xc01u);
    return env;
  }

  /// Oracle rows for `plan`.
  std::vector<std::string> Oracle(const Env& env, const PlanNode* plan) {
    ReferenceExecutor oracle(env.sc.catalog.get());
    for (const auto& [rel, t] : env.data) oracle.LoadTable(rel, &t);
    Result<Table> t = oracle.Run(plan);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? CanonicalRows(*t) : std::vector<std::string>{};
  }

  /// Columnar-engine rows for `plan` on `pool`.
  std::vector<std::string> Engine(const Env& env, const PlanNode* plan,
                                  ThreadPool* pool) {
    ExecContext ctx;
    ctx.catalog = env.sc.catalog.get();
    for (const auto& [rel, t] : env.data) ctx.base_tables[rel] = &t;
    MorselScheduler sched(pool);
    ctx.morsels = &sched;
    Result<Table> t = ExecutePlan(plan, &ctx);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? CanonicalRows(*t) : std::vector<std::string>{};
  }

  /// Asserts plan equivalence `a` ≡ `b` across the oracle and the engine at
  /// every pool size.
  void ExpectEquivalent(const Env& env, const PlanNode* a, const PlanNode* b,
                        uint64_t seed, const char* what) {
    std::vector<std::string> want = Oracle(env, a);
    EXPECT_EQ(Oracle(env, b), want)
        << what << " diverges in the oracle (seed " << seed << ")";
    for (auto& pool : pools_) {
      EXPECT_EQ(Engine(env, a, pool.get()), want)
          << what << ": engine(lhs) diverges at " << pool->size()
          << " threads (seed " << seed << ")";
      EXPECT_EQ(Engine(env, b, pool.get()), want)
          << what << ": engine(rhs) diverges at " << pool->size()
          << " threads (seed " << seed << ")";
    }
  }

  /// Int attributes of a relation, in schema order.
  static std::vector<AttrId> IntAttrs(const RelationDef& rel) {
    std::vector<AttrId> out;
    for (const Column& c : rel.schema.columns()) {
      if (c.type == DataType::kInt64) out.push_back(c.attr);
    }
    return out;
  }

  static CmpOp RandomOp(Rng& rng) {
    switch (rng.Uniform(6)) {
      case 0:
        return CmpOp::kEq;
      case 1:
        return CmpOp::kNe;
      case 2:
        return CmpOp::kLt;
      case 3:
        return CmpOp::kLe;
      case 4:
        return CmpOp::kGt;
      default:
        return CmpOp::kGe;
    }
  }

  PlanPtr Fin(const Env& env, PlanPtr p) {
    Result<PlanPtr> r = FinishPlan(std::move(p), *env.sc.catalog);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(*r) : nullptr;
  }

  std::vector<std::unique_ptr<ThreadPool>> pools_;
};

TEST_F(MetamorphicTest, FilterConjunctionSplitsAndCommutes) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    Result<Env> env = MakeEnv(seed);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    Rng rng(seed * 131);
    const auto& rels = env->sc.catalog->relations();
    const RelationDef& rel = rels[rng.Uniform(rels.size())];
    std::vector<AttrId> ints = IntAttrs(rel);
    ASSERT_GE(ints.size(), 2u) << "seed " << seed;
    Predicate p = Predicate::AttrValue(ints[rng.Uniform(ints.size())],
                                       RandomOp(rng), Value(rng.Range(0, 40)));
    Predicate q = Predicate::AttrValue(ints[rng.Uniform(ints.size())],
                                       RandomOp(rng), Value(rng.Range(0, 40)));
    // σ_{p∧q}(R) ≡ σ_q(σ_p(R)) ≡ σ_p(σ_q(R)).
    PlanPtr both = Fin(*env, Select(Base(rel.id), {p, q}));
    PlanPtr chained = Fin(*env, Select(Select(Base(rel.id), {p}), {q}));
    PlanPtr flipped = Fin(*env, Select(Select(Base(rel.id), {q}), {p}));
    ASSERT_TRUE(both && chained && flipped);
    ExpectEquivalent(*env, both.get(), chained.get(), seed,
                     "filter(p AND q) vs filter(q) . filter(p)");
    ExpectEquivalent(*env, chained.get(), flipped.get(), seed,
                     "filter chain commutation");
  }
}

TEST_F(MetamorphicTest, ProjectionReorderAroundSelection) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    Result<Env> env = MakeEnv(seed ^ 0x5eed);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    Rng rng(seed * 733 + 1);
    const auto& rels = env->sc.catalog->relations();
    const RelationDef& rel = rels[rng.Uniform(rels.size())];
    std::vector<AttrId> ints = IntAttrs(rel);
    ASSERT_GE(ints.size(), 2u) << "seed " << seed;
    AttrId pred_attr = ints[rng.Uniform(ints.size())];
    Predicate p =
        Predicate::AttrValue(pred_attr, RandomOp(rng), Value(rng.Range(0, 40)));
    // A projection set containing the predicate attribute plus one more.
    AttrSet keep;
    keep.Insert(pred_attr);
    keep.Insert(ints[rng.Uniform(ints.size())]);
    keep.Insert(rel.schema.columns().front().attr);
    // π_A(σ_p(R)) ≡ σ_p(π_A(R)) when p's attributes ⊆ A.
    PlanPtr pa = Fin(*env, Project(Select(Base(rel.id), {p}), keep));
    PlanPtr pb = Fin(*env, Select(Project(Base(rel.id), keep), {p}));
    ASSERT_TRUE(pa && pb);
    ExpectEquivalent(*env, pa.get(), pb.get(), seed,
                     "projection/selection reorder");
  }
}

TEST_F(MetamorphicTest, JoinCommutes) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    Result<Env> env = MakeEnv(seed ^ 0x10b5);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    Rng rng(seed * 977 + 5);
    const auto& rels = env->sc.catalog->relations();
    ASSERT_GE(rels.size(), 2u);
    size_t i = rng.Uniform(rels.size());
    size_t j = rng.Uniform(rels.size() - 1);
    if (j >= i) ++j;
    std::vector<AttrId> li = IntAttrs(rels[i]), rj = IntAttrs(rels[j]);
    ASSERT_FALSE(li.empty());
    ASSERT_FALSE(rj.empty());
    Predicate eq = Predicate::AttrAttr(li[rng.Uniform(li.size())], CmpOp::kEq,
                                       rj[rng.Uniform(rj.size())]);
    // R ⋈ S ≡ S ⋈ R (CanonicalRows is column-order insensitive).
    PlanPtr lr = Fin(*env, Join(Base(rels[i].id), Base(rels[j].id), {eq}));
    PlanPtr rl = Fin(*env, Join(Base(rels[j].id), Base(rels[i].id), {eq}));
    ASSERT_TRUE(lr && rl);
    ExpectEquivalent(*env, lr.get(), rl.get(), seed, "join commutativity");
  }
}

}  // namespace
}  // namespace mpq