// Columnar vs row-major execution on the TPC-H filter/groupby mix: the
// layout differential as a benchmark. The row engine is the retained
// row-path oracle in testing/reference_exec (the pre-columnar
// vector<vector<Cell>> execution style); the columnar engine is the
// production executor, measured single-threaded for a pure layout
// comparison and at 8 threads for the combined layout+parallelism win.
// Every workload's results are verified bit-identical (CanonicalRows)
// between the two engines before timing is reported.
//
// Emits BENCH_columnar.json (override with --json <path>).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "algebra/plan_builder.h"
#include "bench_json.h"
#include "exec/executor.h"
#include "exec/morsel.h"
#include "testing/reference_exec.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

using namespace mpq;

namespace {

using Clock = std::chrono::steady_clock;

struct Workload {
  std::string name;
  PlanPtr plan;
};

double BestOf(int reps, const std::function<double()>& run) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) best = std::min(best, run());
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      bench::ParseJsonFlag(&argc, argv, "BENCH_columnar.json");
  double data_sf = argc > 1 ? std::atof(argv[1]) : 0.02;
  int reps = argc > 2 ? std::atoi(argv[2]) : 3;
  if (data_sf <= 0) data_sf = 0.02;
  if (reps < 1) reps = 1;

  TpchEnv env = MakeTpchEnv(/*costing_sf=*/1.0, /*num_providers=*/3);
  TpchData db = GenerateTpch(env, data_sf, /*seed=*/5);
  std::printf(
      "Columnar vs row-major layout, TPC-H data_sf=%.4g "
      "(lineitem rows: %zu), best of %d reps\n\n",
      data_sf, db.at(env.lineitem).num_rows(), reps);

  // The filter/groupby mix: Q1 (scan + wide groupby), Q6 (selective filter
  // + global aggregate), a high-cardinality groupby, and a filter-heavy
  // scan; Q3 and Q12 add join coverage.
  std::vector<Workload> workloads;
  for (int q : {1, 6, 3, 12}) {
    Result<PlanPtr> p = BuildTpchQuery(q, env);
    if (!p.ok()) {
      std::printf("Q%d build error: %s\n", q, p.status().ToString().c_str());
      continue;
    }
    workloads.push_back({"Q" + std::to_string(q), std::move(*p)});
  }
  {
    PlanBuilder b(&env.catalog);
    PlanPtr p = Select(b.Rel("lineitem"),
                       {b.Pv("l_quantity", CmpOp::kLe, Value(25.0)),
                        b.Pv("l_shipdate", CmpOp::kGt, Value(int64_t{800}))});
    p = GroupBy(std::move(p), b.Set("l_partkey"),
                {Aggregate::Make(AggFunc::kSum, b.A("l_extendedprice")),
                 Aggregate::Make(AggFunc::kMax, b.A("l_discount"))});
    Result<PlanPtr> fp = FinishPlan(std::move(p), env.catalog);
    if (fp.ok()) workloads.push_back({"groupby-hi", std::move(*fp)});
  }
  {
    PlanBuilder b(&env.catalog);
    PlanPtr p = Select(b.Rel("lineitem"),
                       {b.Pv("l_returnflag", CmpOp::kEq,
                             Value(std::string("N"))),
                        b.Pv("l_quantity", CmpOp::kLt, Value(30.0)),
                        b.Pv("l_discount", CmpOp::kGe, Value(0.02))});
    p = Project(std::move(p), b.Set("l_orderkey,l_extendedprice"));
    Result<PlanPtr> fp = FinishPlan(std::move(p), env.catalog);
    if (fp.ok()) workloads.push_back({"filter-scan", std::move(*fp)});
  }

  // Row engine: the row-path oracle, base tables converted at load time.
  ReferenceExecutor row_engine(&env.catalog);
  for (const auto& [rel, t] : db.tables) row_engine.LoadTable(rel, &t);

  ThreadPool pool8(8);
  MorselScheduler sched8(&pool8);

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("columnar");
  w.Key("data_sf").Double(data_sf);
  w.Key("lineitem_rows").UInt(db.at(env.lineitem).num_rows());
  bench::WriteRunMeta(&w);
  w.Key("workloads").BeginArray();

  std::printf("%-12s %10s %10s %8s %10s %8s   %s\n", "workload", "row(ms)",
              "col(ms)", "spd", "col8(ms)", "spd8", "rows");
  double geomean_log = 0;
  size_t measured = 0;
  bool all_match = true;
  for (const Workload& wl : workloads) {
    Result<Table> row_result = row_engine.Run(wl.plan.get());
    if (!row_result.ok()) {
      std::printf("%-12s row engine error: %s\n", wl.name.c_str(),
                  row_result.status().ToString().c_str());
      all_match = false;  // an unverifiable workload fails the gate
      continue;
    }
    ExecContext ctx;
    ctx.catalog = &env.catalog;
    for (const auto& [rel, t] : db.tables) ctx.base_tables[rel] = &t;
    Result<Table> col_result = ExecutePlan(wl.plan.get(), &ctx);
    if (!col_result.ok()) {
      std::printf("%-12s columnar error: %s\n", wl.name.c_str(),
                  col_result.status().ToString().c_str());
      all_match = false;  // an unverifiable workload fails the gate
      continue;
    }
    bool match = CanonicalRows(*row_result) == CanonicalRows(*col_result);
    all_match = all_match && match;
    if (!match) {
      std::printf("%-12s RESULT MISMATCH row vs columnar\n", wl.name.c_str());
      continue;
    }

    double row_s = BestOf(reps, [&] {
      auto t0 = Clock::now();
      Result<Table> t = row_engine.Run(wl.plan.get());
      auto t1 = Clock::now();
      if (!t.ok()) return 1e300;
      return std::chrono::duration<double>(t1 - t0).count();
    });
    double col_s = BestOf(reps, [&] {
      ExecContext c;
      c.catalog = &env.catalog;
      for (const auto& [rel, t] : db.tables) c.base_tables[rel] = &t;
      auto t0 = Clock::now();
      Result<Table> t = ExecutePlan(wl.plan.get(), &c);
      auto t1 = Clock::now();
      if (!t.ok()) return 1e300;
      return std::chrono::duration<double>(t1 - t0).count();
    });
    double col8_s = BestOf(reps, [&] {
      ExecContext c;
      c.catalog = &env.catalog;
      for (const auto& [rel, t] : db.tables) c.base_tables[rel] = &t;
      c.morsels = &sched8;
      auto t0 = Clock::now();
      Result<Table> t = ExecutePlan(wl.plan.get(), &c);
      auto t1 = Clock::now();
      if (!t.ok()) return 1e300;
      return std::chrono::duration<double>(t1 - t0).count();
    });

    double spd = row_s / col_s;
    std::printf("%-12s %10.2f %10.2f %7.2fx %10.2f %7.2fx   %zu\n",
                wl.name.c_str(), row_s * 1e3, col_s * 1e3, spd, col8_s * 1e3,
                row_s / col8_s, col_result->num_rows());
    geomean_log += std::log(spd);
    measured++;

    w.BeginObject();
    w.Key("name").String(wl.name);
    w.Key("row_ms").Double(row_s * 1e3);
    w.Key("columnar_ms").Double(col_s * 1e3);
    w.Key("columnar_8t_ms").Double(col8_s * 1e3);
    w.Key("speedup_1t").Double(spd);
    w.Key("speedup_8t").Double(row_s / col8_s);
    w.Key("rows").UInt(col_result->num_rows());
    w.Key("verified").Bool(match);
    w.EndObject();
  }
  w.EndArray();
  double geomean = measured > 0 ? std::exp(geomean_log / measured) : 0;
  w.Key("geomean_speedup_1t").Double(geomean);
  w.Key("all_verified").Bool(all_match);
  w.EndObject();
  bench::WriteJsonFile(json_path, w.TakeString());

  std::printf(
      "\ngeomean single-thread speedup (columnar over row-major): %.2fx\n",
      geomean);
  std::printf("results verified bit-identical: %s\n", all_match ? "yes" : "NO");
  std::printf("wrote %s\n", json_path.c_str());
  // Gate: every workload must have been measured AND verified identical.
  return all_match && measured == workloads.size() ? 0 : 1;
}
