// Batch-parallel executor scaling on the TPC-H cost workload: wall-clock of
// the single-threaded executor vs a MorselScheduler over thread pools of
// 1/2/4/8 workers, on
// (a) plaintext scan-join-aggregate queries and (b) an encryption-heavy
// extended plan (DET select + OPE range + Paillier aggregation), whose
// per-row crypto is the paper's dominant runtime cost and parallelizes
// near-linearly.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "algebra/plan_builder.h"
#include "exec/executor.h"
#include "exec/morsel.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

using namespace mpq;

namespace {

using Clock = std::chrono::steady_clock;

double TimedRun(const PlanNode* plan, ExecContext* ctx, int reps,
                size_t* out_rows) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    auto t0 = Clock::now();
    Result<Table> t = ExecutePlan(plan, ctx);
    auto t1 = Clock::now();
    if (!t.ok()) {
      std::printf("  error: %s\n", t.status().ToString().c_str());
      return -1;
    }
    *out_rows = t->num_rows();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct Workload {
  std::string name;
  PlanPtr plan;
};

}  // namespace

int main(int argc, char** argv) {
  double data_sf = argc > 1 ? std::atof(argv[1]) : 0.01;
  int reps = argc > 2 ? std::atoi(argv[2]) : 3;
  if (data_sf <= 0) data_sf = 0.01;
  if (reps < 1) reps = 1;

  TpchEnv env = MakeTpchEnv(/*costing_sf=*/1.0, /*num_providers=*/3);
  TpchData db = GenerateTpch(env, data_sf, /*seed=*/5);
  std::printf("TPC-H data_sf=%.4g (lineitem rows: %zu), best of %d reps\n\n",
              data_sf, db.at(env.lineitem).num_rows(), reps);

  std::vector<Workload> workloads;
  for (int q : {1, 3, 6, 12}) {
    Result<PlanPtr> p = BuildTpchQuery(q, env);
    if (!p.ok()) {
      std::printf("Q%d build error: %s\n", q, p.status().ToString().c_str());
      continue;
    }
    workloads.push_back({"Q" + std::to_string(q), std::move(*p)});
  }

  // Encryption-heavy workload: encrypt lineitem columns under the schemes
  // the paper's assignments use, filter on the DET column, range on OPE,
  // Paillier-sum the price, then decrypt the aggregate.
  CryptoPlan crypto;
  {
    PlanBuilder b(&env.catalog);
    crypto.scheme_of[b.A("l_returnflag")] = EncScheme::kDeterministic;
    crypto.scheme_of[b.A("l_shipdate")] = EncScheme::kOpe;
    crypto.scheme_of[b.A("l_extendedprice")] = EncScheme::kPaillier;
    PlanPtr p = Project(b.Rel("lineitem"),
                        b.Set("l_returnflag,l_shipdate,l_extendedprice"));
    p = Encrypt(std::move(p),
                b.Set("l_returnflag,l_shipdate,l_extendedprice"));
    p = Select(std::move(p), {b.Pv("l_returnflag", CmpOp::kEq,
                                   Value(std::string("R")))});
    p = Select(std::move(p), {b.Pv("l_shipdate", CmpOp::kGt,
                                   Value(int64_t{1204}))});
    p = GroupBy(std::move(p), {},
                {Aggregate::Make(AggFunc::kSum, b.A("l_extendedprice"))});
    p = Decrypt(std::move(p), b.Set("l_extendedprice"));
    Result<PlanPtr> fp = FinishPlan(std::move(p), env.catalog);
    if (fp.ok()) {
      workloads.push_back({"enc-sum", std::move(*fp)});
    } else {
      std::printf("enc-sum build error: %s\n", fp.status().ToString().c_str());
    }
  }

  KeyRing ring;
  ring.Add(MakeKeyMaterial(/*seed=*/7, /*key_id=*/0));

  const size_t kThreadCounts[] = {1, 2, 4, 8};
  std::printf("%-10s %12s", "workload", "seq(ms)");
  for (size_t n : kThreadCounts) std::printf("   %zut(ms) spd", n);
  std::printf("   rows\n");

  for (const Workload& w : workloads) {
    auto make_ctx = [&](ExecContext* ctx) {
      ctx->catalog = &env.catalog;
      for (const auto& [rel, t] : db.tables) ctx->base_tables[rel] = &t;
      ctx->keyring = &ring;
      ctx->dispatcher_keyring = &ring;
      ctx->crypto = &crypto;
      KeyMaterial km = *ring.Get(0);
      ctx->public_modulus = std::make_shared<HomKeyDirectory>(
          HomKeyDirectory{{0, km.paillier.n}});
    };

    size_t rows = 0;
    ExecContext seq_ctx;
    make_ctx(&seq_ctx);
    double seq = TimedRun(w.plan.get(), &seq_ctx, reps, &rows);
    if (seq < 0) continue;
    std::printf("%-10s %12.2f", w.name.c_str(), seq * 1e3);
    for (size_t n : kThreadCounts) {
      ThreadPool pool(n);
      MorselScheduler sched(&pool);
      ExecContext ctx;
      make_ctx(&ctx);
      ctx.morsels = &sched;
      double t = TimedRun(w.plan.get(), &ctx, reps, &rows);
      if (t < 0) break;
      std::printf("   %7.2f %4.2f", t * 1e3, seq / t);
    }
    std::printf("   %zu\n", rows);
  }
  std::printf(
      "\nspd = single-threaded time / pooled time (>1 is a speedup).\n");
  return 0;
}
