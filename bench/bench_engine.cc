// Engine bench: the columnar flat-hash executor against the retained row
// oracle (testing/reference_exec) on one table of TPC-H workloads — scans
// and filters, joins, low- and high-cardinality group-bys, and three
// encrypted pipelines (DET/OPE selection, Paillier sums over DET group keys).
//
// The encrypted workloads run over a lineitem table encrypted once outside
// every timed region — the steady state the paper models, where ciphertexts
// already live at the provider and a query pays for ciphertext work plus
// result decryption, not for re-encrypting the base data. The oracle runs
// the same plan without the final Decrypt over the plaintext tables, so
// verification proves the ciphertext pipeline end to end.
//
// Gates (the process exits 1 on any failure):
//  - every workload in kSpecs builds, verifies and is measured;
//  - the engine result canonicalizes identically to the oracle's;
//  - the engine's serialized result bytes are identical inline and on
//    2-, 4- and 8-worker schedulers and, with --trace, when traced at each;
//  - no workload, encrypted ones included, runs slower than the oracle at a
//    thread count that does not oversubscribe the host;
//  - precomputed Paillier ciphertexts equal the schoolbook ones;
//  - with --trace, the tracing-off overhead on Q3 stays within 3%.
//
// Usage: bench_engine [data_sf=0.02] [reps=3] [--trace <path>] [--json <path>]
// Writes BENCH_engine.json unless --json names another path; --trace also
// writes a chrome://tracing document of every workload's 8-thread run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "algebra/plan_builder.h"
#include "bench_json.h"
#include "common/flat_hash.h"
#include "crypto/keyring.h"
#include "exec/executor.h"
#include "exec/morsel.h"
#include "obs/trace.h"
#include "testing/reference_exec.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

using namespace mpq;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One workload: a TPC-H query (`tpch_query` > 0) or a hand-built plan
/// (`body`). A workload with `decrypt` set is encrypted: the engine runs it
/// over the pre-encrypted lineitem and decrypts `decrypt` at the end.
struct Spec {
  const char* name;
  int tpch_query;
  PlanPtr (*body)(PlanBuilder&);
  const char* decrypt;
};

// High-cardinality aggregation: one group per few rows.
PlanPtr GroupByHi(PlanBuilder& b) {
  PlanPtr p = Select(b.Rel("lineitem"),
                     {b.Pv("l_quantity", CmpOp::kLe, Value(25.0)),
                      b.Pv("l_shipdate", CmpOp::kGt, Value(int64_t{800}))});
  return GroupBy(std::move(p), b.Set("l_partkey"),
                 {Aggregate::Make(AggFunc::kSum, b.A("l_extendedprice")),
                  Aggregate::Make(AggFunc::kMax, b.A("l_discount"))});
}

// Filter-heavy scan: a three-predicate conjunction, then a projection.
PlanPtr FilterScan(PlanBuilder& b) {
  PlanPtr p = Select(
      b.Rel("lineitem"),
      {b.Pv("l_returnflag", CmpOp::kEq, Value(std::string("N"))),
       b.Pv("l_quantity", CmpOp::kLt, Value(30.0)),
       b.Pv("l_discount", CmpOp::kGe, Value(0.02))});
  return Project(std::move(p), b.Set("l_orderkey,l_extendedprice"));
}

// Join-heavy: a selective orders build side probed by every lineitem row;
// the residual projection keeps the join the dominant cost.
PlanPtr JoinProbe(PlanBuilder& b) {
  PlanPtr o = Select(b.Rel("orders"),
                     {b.Pv("o_orderdate", CmpOp::kLt, Value(int64_t{1200}))});
  PlanPtr p = Join(std::move(o), b.Rel("lineitem"),
                   {b.Pa("o_orderkey", CmpOp::kEq, "l_orderkey")});
  return Project(std::move(p),
                 b.Set("o_orderkey,o_totalprice,l_extendedprice"));
}

// Dictionary-keyed aggregation: string group keys become dense codes.
PlanPtr GroupByStr(PlanBuilder& b) {
  return GroupBy(b.Rel("lineitem"), b.Set("l_shipmode,l_returnflag"),
                 {Aggregate::Make(AggFunc::kSum, b.A("l_quantity")),
                  Aggregate::Make(AggFunc::kCount, b.A("l_orderkey"))});
}

// Paillier sum grouped by a DET-encrypted string key (3 groups).
PlanPtr GroupByHom(PlanBuilder& b) {
  return GroupBy(b.Rel("lineitem"), b.Set("l_returnflag"),
                 {Aggregate::Make(AggFunc::kSum, b.A("l_suppkey"))});
}

// One group per DET-encrypted l_partkey (about 4k at sf 0.02), each folding
// a handful of ciphertexts: the shape where per-group overhead dominates.
PlanPtr GroupByHomHi(PlanBuilder& b) {
  return GroupBy(b.Rel("lineitem"), b.Set("l_partkey"),
                 {Aggregate::Make(AggFunc::kSum, b.A("l_suppkey"))});
}

// DET equality and OPE range over ciphertext, then a Paillier sum. The
// summed column is int64: a double travels as fixed point, so its decrypted
// sum would not equal the oracle's floating-point sum.
PlanPtr SelectEnc(PlanBuilder& b) {
  PlanPtr p = Select(
      b.Rel("lineitem"),
      {b.Pv("l_returnflag", CmpOp::kEq, Value(std::string("R"))),
       b.Pv("l_shipdate", CmpOp::kGt, Value(int64_t{1204}))});
  return GroupBy(std::move(p), {},
                 {Aggregate::Make(AggFunc::kSum, b.A("l_suppkey"))});
}

// Q1: scan + wide group-by. Q6: selective filter + global aggregate. Q3: the
// customer⋈orders⋈lineitem probe mix. Q12: a two-way join under a filter.
const Spec kSpecs[] = {
    {"Q1", 1, nullptr, nullptr},
    {"Q6", 6, nullptr, nullptr},
    {"Q3", 3, nullptr, nullptr},
    {"Q12", 12, nullptr, nullptr},
    {"groupby-hi", 0, GroupByHi, nullptr},
    {"filter-scan", 0, FilterScan, nullptr},
    {"join-probe", 0, JoinProbe, nullptr},
    {"groupby-str", 0, GroupByStr, nullptr},
    {"groupby-hom", 0, GroupByHom, "l_suppkey,l_returnflag"},
    {"groupby-hom-hi", 0, GroupByHomHi, "l_suppkey,l_partkey"},
    {"select-enc", 0, SelectEnc, "l_suppkey"},
};

Result<PlanPtr> OraclePlan(const Spec& s, const TpchEnv& env) {
  if (s.tpch_query > 0) return BuildTpchQuery(s.tpch_query, env);
  PlanBuilder b(&env.catalog);
  return FinishPlan(s.body(b), env.catalog);
}

Result<PlanPtr> EnginePlan(const Spec& s, const TpchEnv& env) {
  MPQ_ASSIGN_OR_RETURN(PlanPtr p, OraclePlan(s, env));
  if (s.decrypt == nullptr) return p;
  PlanBuilder b(&env.catalog);
  return FinishPlan(Decrypt(std::move(p), b.Set(s.decrypt)), env.catalog);
}

struct Workload {
  const Spec* spec;
  PlanPtr plan;
  PlanPtr oracle_plan;
};

/// A rung of the thread ladder: `sched` null runs every morsel inline.
struct Rung {
  size_t threads;
  MorselScheduler* sched;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      bench::ParseJsonFlag(&argc, argv, "BENCH_engine.json");
  std::string trace_path;
  {
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
        trace_path = argv[++i];
        continue;
      }
      argv[out++] = argv[i];
    }
    argc = out;
  }
  double data_sf = argc > 1 ? std::atof(argv[1]) : 0.02;
  int reps = argc > 2 ? std::atoi(argv[2]) : 3;
  if (data_sf <= 0) data_sf = 0.02;
  if (reps < 1) reps = 1;

  TpchEnv env = MakeTpchEnv(/*costing_sf=*/1.0, /*num_providers=*/3);
  TpchData db = GenerateTpch(env, data_sf, /*seed=*/5);
  std::printf(
      "Engine vs row oracle, TPC-H data_sf=%.4g (lineitem rows: %zu), best "
      "of %d reps\n\n",
      data_sf, db.at(env.lineitem).num_rows(), reps);

  // One key (id 0), held by the engine and the dispatcher alike.
  KeyRing keyring;
  keyring.Add(MakeKeyMaterial(/*seed=*/1, /*key_id=*/0));
  CryptoPlan crypto;
  const AttrRegistry& attrs = env.catalog.attrs();
  crypto.scheme_of[attrs.Find("l_suppkey")] = EncScheme::kPaillier;
  crypto.scheme_of[attrs.Find("l_returnflag")] = EncScheme::kDeterministic;
  crypto.scheme_of[attrs.Find("l_partkey")] = EncScheme::kDeterministic;
  crypto.scheme_of[attrs.Find("l_shipdate")] = EncScheme::kOpe;
  auto modulus_dir = std::make_shared<HomKeyDirectory>(
      HomKeyDirectory{{0, (*keyring.Get(0)).paillier.n}});
  Table enc_lineitem;
  auto make_ctx = [&](ExecContext* ctx, bool encrypted,
                      MorselScheduler* sched) {
    ctx->catalog = &env.catalog;
    for (const auto& [rel, t] : db.tables) ctx->base_tables[rel] = &t;
    if (encrypted) ctx->base_tables[env.lineitem] = &enc_lineitem;
    ctx->keyring = &keyring;
    ctx->dispatcher_keyring = &keyring;
    ctx->crypto = &crypto;
    ctx->public_modulus = modulus_dir;
    ctx->morsels = sched;
  };

  // One-time lineitem encryption, reported for context but outside every
  // workload's measurement.
  double encrypt_ms = 0;
  {
    PlanBuilder b(&env.catalog);
    Result<PlanPtr> ep = FinishPlan(
        Encrypt(b.Rel("lineitem"),
                b.Set("l_suppkey,l_returnflag,l_partkey,l_shipdate")),
        env.catalog);
    if (!ep.ok()) {
      std::printf("lineitem encrypt build error: %s\n",
                  ep.status().ToString().c_str());
      return 1;
    }
    ExecContext ctx;
    make_ctx(&ctx, false, nullptr);
    auto t0 = Clock::now();
    Result<Table> enc = ExecutePlan((*ep).get(), &ctx);
    encrypt_ms = SecondsSince(t0) * 1e3;
    if (!enc.ok()) {
      std::printf("lineitem encrypt error: %s\n",
                  enc.status().ToString().c_str());
      return 1;
    }
    enc_lineitem = std::move(*enc);
    std::printf("lineitem encrypted once in %.1f ms (untimed setup)\n\n",
                encrypt_ms);
  }

  // A workload that fails to build is missing from `workloads`, so
  // `completed < expected` fails the run instead of skipping it silently.
  const size_t expected = std::size(kSpecs);
  std::vector<Workload> workloads;
  for (const Spec& s : kSpecs) {
    Result<PlanPtr> plan = EnginePlan(s, env);
    Result<PlanPtr> oracle = OraclePlan(s, env);
    if (!plan.ok() || !oracle.ok()) {
      const Status& st = plan.ok() ? oracle.status() : plan.status();
      std::printf("%s build error: %s\n", s.name, st.ToString().c_str());
      continue;
    }
    workloads.push_back({&s, std::move(*plan), std::move(*oracle)});
  }

  ReferenceExecutor row_engine(&env.catalog);
  for (const auto& [rel, t] : db.tables) row_engine.LoadTable(rel, &t);

  ThreadPool pool2(2), pool4(4), pool8(8);
  MorselScheduler s2(&pool2), s4(&pool4), s8(&pool8);
  const Rung kLadder[] = {{1, nullptr}, {2, &s2}, {4, &s4}, {8, &s8}};
  TraceSink trace_sink(std::size(kSpecs));
  double q3_plain_s = 0, q3_traceoff_s = 0;
  bool trace_overhead_ok = true;

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("engine");
  w.Key("data_sf").Double(data_sf);
  w.Key("lineitem_rows").UInt(db.at(env.lineitem).num_rows());
  w.Key("lineitem_encrypt_ms").Double(encrypt_ms);
  bench::WriteRunMeta(&w);
  w.Key("workloads").BeginArray();

  std::printf("%-15s %9s", "workload", "row(ms)");
  for (const Rung& r : kLadder) std::printf(" %7zut(ms)", r.threads);
  std::printf(" %8s  %s\n", "spd(1t)", "rows");
  double geomean_log = 0;
  size_t measured = 0;
  size_t completed = 0;
  bool all_verified = true;
  double min_speedup = 1e300;
  std::string min_speedup_name;
  for (const Workload& wl : workloads) {
    const char* name = wl.spec->name;
    const bool encrypted = wl.spec->decrypt != nullptr;
    auto run = [&](MorselScheduler* sched, QueryTrace* trace) {
      ExecContext ctx;
      make_ctx(&ctx, encrypted, sched);
      ctx.trace = trace;
      return ExecutePlan(wl.plan.get(), &ctx);
    };

    // Verification: engine ≡ oracle (canonical rows), and the engine's
    // result bytes identical on every rung, traced or not.
    Result<Table> oracle = row_engine.Run(wl.oracle_plan.get());
    Result<Table> inline_run = run(nullptr, nullptr);
    if (!oracle.ok() || !inline_run.ok()) {
      const Status& st = oracle.ok() ? inline_run.status() : oracle.status();
      std::printf("%-15s %s error: %s\n", name,
                  oracle.ok() ? "engine" : "oracle", st.ToString().c_str());
      all_verified = false;
      continue;
    }
    const size_t rows = inline_run->num_rows();
    const std::string wire = inline_run->SerializeColumns();
    bool verified = CanonicalRows(*oracle) == CanonicalRows(*inline_run);
    bool traced_identical = true;
    for (const Rung& rung : kLadder) {
      if (rung.sched != nullptr) {
        Result<Table> r = run(rung.sched, nullptr);
        verified = verified && r.ok() && r->SerializeColumns() == wire;
      }
      if (trace_path.empty()) continue;
      // Tracing is observation-only: traced bytes must equal untraced ones.
      auto qtrace = std::make_shared<QueryTrace>(
          MakeTraceId(/*session_id=*/1, HashBytes(name),
                      /*attempt=*/rung.threads),
          nullptr);
      Result<Table> t = run(rung.sched, qtrace.get());
      traced_identical =
          traced_identical && t.ok() && t->SerializeColumns() == wire;
      if (rung.threads == 8) trace_sink.Add(qtrace);
    }
    if (!traced_identical) {
      std::printf("%-15s TRACED RUN DIFFERS FROM UNTRACED\n", name);
    }
    verified = verified && traced_identical;
    all_verified = all_verified && verified;
    if (!verified) {
      std::printf("%-15s RESULT MISMATCH\n", name);
      continue;
    }

    double row_s = 1e300;
    for (int i = 0; i < reps; ++i) {
      auto t0 = Clock::now();
      Result<Table> t = row_engine.Run(wl.oracle_plan.get());
      if (t.ok()) row_s = std::min(row_s, SecondsSince(t0));
    }
    std::vector<double> secs(std::size(kLadder), 1e300);
    for (size_t k = 0; k < secs.size(); ++k) {
      for (int i = 0; i < reps; ++i) {
        ExecContext ctx;
        make_ctx(&ctx, encrypted, kLadder[k].sched);
        auto t0 = Clock::now();
        Result<Table> t = ExecutePlan(wl.plan.get(), &ctx);
        if (t.ok()) secs[k] = std::min(secs[k], SecondsSince(t0));
      }
    }

    // Tracing-off overhead gate (Q3): with the tracer disabled, a query
    // pays one predictable branch. Each iteration times a plain run and a
    // tracer-off run back to back; the gate passes if ANY pair lands within
    // 3% (plus 0.5 ms of slack for sub-millisecond jitter). A real overhead
    // shows in every pair, while a load burst on a shared runner dirties
    // some pairs but not all.
    if (!trace_path.empty() && wl.spec->tpch_query == 3) {
      Tracer off_tracer(TraceConfig{}, nullptr, nullptr);
      q3_plain_s = 1e300;
      q3_traceoff_s = 1e300;
      trace_overhead_ok = false;
      for (int i = 0; i < std::max(reps, 5); ++i) {
        double plain_i = 1e300;
        double off_i = 1e300;
        {
          ExecContext ctx;
          make_ctx(&ctx, false, nullptr);
          auto t0 = Clock::now();
          Result<Table> t = ExecutePlan(wl.plan.get(), &ctx);
          if (t.ok()) plain_i = SecondsSince(t0);
        }
        {
          ExecContext ctx;
          make_ctx(&ctx, false, nullptr);
          auto t0 = Clock::now();
          std::shared_ptr<QueryTrace> qt =
              off_tracer.MaybeStart(1, HashBytes(name));
          ctx.trace = qt.get();  // null: the tracer is disabled
          Result<Table> t = ExecutePlan(wl.plan.get(), &ctx);
          if (t.ok()) off_i = SecondsSince(t0);
        }
        if (off_i <= plain_i * 1.03 + 5e-4) trace_overhead_ok = true;
        q3_plain_s = std::min(q3_plain_s, plain_i);
        q3_traceoff_s = std::min(q3_traceoff_s, off_i);
      }
      std::printf(
          "%-15s tracing-off overhead: plain %.3f ms, tracer-off %.3f ms "
          "(%+.1f%%): %s\n",
          name, q3_plain_s * 1e3, q3_traceoff_s * 1e3,
          (q3_traceoff_s / q3_plain_s - 1) * 100,
          trace_overhead_ok ? "ok" : "ABOVE 3% GATE");
    }

    const double spd = row_s / secs[0];
    std::printf("%-15s %9.2f", name, row_s * 1e3);
    for (double s : secs) std::printf(" %10.2f", s * 1e3);
    std::printf(" %7.2fx%s  %zu\n", spd, encrypted ? "*" : " ", rows);
    // Encrypted workloads measure ciphertext work the oracle never does, so
    // they stay out of the geomean (but not out of the floor).
    if (!encrypted) {
      geomean_log += std::log(spd);
      measured++;
    }
    completed++;

    w.BeginObject();
    w.Key("name").String(name);
    w.Key("encrypted").Bool(encrypted);
    w.Key("row_ms").Double(row_s * 1e3);
    w.Key("rows").UInt(rows);
    w.Key("verified").Bool(verified);
    if (!trace_path.empty()) w.Key("traced_identical").Bool(traced_identical);
    w.Key("threads").BeginArray();
    for (size_t k = 0; k < secs.size(); ++k) {
      // A thread count above the host's cores times scheduler churn, not
      // the engine: such rows are marked and left out of the floor gate.
      const bool oversub = bench::Oversubscribed(kLadder[k].threads);
      const double v = row_s / secs[k];
      if (!oversub && v < min_speedup) {
        min_speedup = v;
        min_speedup_name =
            std::string(name) + "@" + std::to_string(kLadder[k].threads) + "t";
      }
      w.BeginObject();
      w.Key("threads").UInt(kLadder[k].threads);
      w.Key("ms").Double(secs[k] * 1e3);
      w.Key("speedup").Double(v);
      w.Key("oversubscribed").Bool(oversub);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  const double geomean = measured > 0 ? std::exp(geomean_log / measured) : 0;
  const bool floor_ok = completed > 0 && min_speedup >= 1.0;
  w.Key("expected").UInt(expected);
  w.Key("completed").UInt(completed);
  w.Key("geomean_speedup_1t").Double(geomean);
  w.Key("min_speedup").Double(completed > 0 ? min_speedup : 0);
  w.Key("min_speedup_workload").String(min_speedup_name);
  w.Key("speedup_floor_ok").Bool(floor_ok);

  // Paillier fixed-window precompute vs the schoolbook PowMod ladder on
  // identical inputs: equality checked once over every input, then each
  // path timed once.
  {
    KeyMaterial km = *keyring.Get(0);
    const PaillierPrecomp& pre = *km.hom_precomp;
    constexpr uint64_t kN = 2000;
    bool equal = true;
    for (uint64_t i = 0; i < kN; ++i) {
      equal = equal &&
              pre.Encrypt(i, i | 1) == PaillierEncrypt(km.paillier, i, i | 1);
    }
    // A ciphertext is never 0; consuming each one keeps the loops live.
    bool nonzero = true;
    auto t0 = Clock::now();
    for (uint64_t i = 0; i < kN; ++i) {
      nonzero = nonzero && PaillierEncrypt(km.paillier, i, i | 1) != 0;
    }
    const double legacy_us = SecondsSince(t0) * 1e6 / kN;
    t0 = Clock::now();
    for (uint64_t i = 0; i < kN; ++i) {
      nonzero = nonzero && pre.Encrypt(i, i | 1) != 0;
    }
    const double fast_us = SecondsSince(t0) * 1e6 / kN;
    all_verified = all_verified && equal && nonzero;
    std::printf(
        "\nPaillier encrypt: schoolbook %.2f us/op, precomputed %.2f us/op "
        "(%.1fx, ciphertexts %s)\n",
        legacy_us, fast_us, legacy_us / fast_us,
        equal ? "identical" : "DIFFER");
    w.Key("paillier_legacy_us_per_op").Double(legacy_us);
    w.Key("paillier_precomp_us_per_op").Double(fast_us);
    w.Key("paillier_precomp_speedup").Double(legacy_us / fast_us);
  }

  if (!trace_path.empty()) {
    w.Key("trace_path").String(trace_path);
    w.Key("q3_plain_ms").Double(q3_plain_s * 1e3);
    w.Key("q3_traceoff_ms").Double(q3_traceoff_s * 1e3);
    w.Key("trace_overhead_ok").Bool(trace_overhead_ok);
    bench::WriteJsonFile(trace_path, trace_sink.ToChromeJson());
    std::printf("wrote %zu traces to %s\n", trace_sink.size(),
                trace_path.c_str());
  }
  w.Key("all_verified").Bool(all_verified);
  w.EndObject();
  bench::WriteJsonFile(json_path, w.TakeString());

  std::printf(
      "\ngeomean single-thread speedup over the row oracle (plaintext "
      "workloads): %.2fx\n",
      geomean);
  std::printf(
      "slowest non-oversubscribed row vs oracle: %s at %.2fx (floor 1.00x): "
      "%s\n",
      min_speedup_name.c_str(), completed > 0 ? min_speedup : 0,
      floor_ok ? "ok" : "BELOW FLOOR");
  std::printf(
      "results verified (oracle ≡ engine, inline ≡ 2t ≡ 4t ≡ 8t%s): %s\n",
      trace_path.empty() ? "" : ", traced ≡ untraced",
      all_verified ? "yes" : "NO");
  std::printf("workloads completed: %zu/%zu\n", completed, expected);
  std::printf("wrote %s\n", json_path.c_str());
  return all_verified && completed == expected && floor_ok &&
                 trace_overhead_ok
             ? 0
             : 1;
}
