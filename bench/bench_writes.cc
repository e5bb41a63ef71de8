// Write-path benchmark: MRV hotspot counters vs a single-record counter
// under 1/2/4/8 writer threads, and reader latency through the service
// while writers churn snapshots.
//
// The counter half measures the MRV claim directly (Faria & Pereira,
// SIGMOD 2023): the same add/sub stream applied to a counter split over 16
// records vs the degenerate 1-record split (every updater serializing on
// one cache line). Totals are verified exact after every run. The gate
// requires MRV to beat the single record at >= 4 writer threads — on rows
// that actually have that many cores; oversubscribed rows are marked and
// excluded (bench_json.h Oversubscribed).
//
// The reader half runs a group-by query through a QueryService pinned to a
// TableStore while writer threads commit insert/delete pairs, reporting
// p50/p95 against the idle baseline and the plan-cache hit rate under
// writes (a write retires no cached plan, so it stays near 1), and checks
// snapshot visibility: a reader may only ever see fully committed writes.
//
// Emits BENCH_writes.json (override with --json <path>).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "authz/policy.h"
#include "bench_json.h"
#include "exec/executor.h"
#include "exec/mrv.h"
#include "exec/table_store.h"
#include "net/pricing.h"
#include "net/topology.h"
#include "service/query_service.h"

using namespace mpq;

namespace {

using Clock = std::chrono::steady_clock;

// ---- counter microbench ----------------------------------------------------

/// One timed run: `threads` workers each apply `ops` alternating Add(1) /
/// Sub(1) calls to a counter with `num_records` records. Per thread every
/// Add precedes the matching Sub, so the total never dips below `initial`
/// and a spurious gather miss (value mid-flight between records) is safely
/// retried. Verifies the final total is exactly `initial`.
double RunCounter(size_t threads, size_t num_records, int64_t initial,
                  int ops, bool* totals_ok) {
  MrvCounter c(initial, num_records, /*seed=*/42 + threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  auto t0 = Clock::now();
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&c, ops] {
      for (int i = 0; i < ops; ++i) {
        if ((i & 1) == 0) {
          c.Add(1);
        } else {
          while (!c.Sub(1).ok()) {
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  auto t1 = Clock::now();
  *totals_ok = *totals_ok && c.Total() == initial;
  return std::chrono::duration<double>(t1 - t0).count();
}

double BestCounter(int reps, size_t threads, size_t num_records,
                   int64_t initial, int ops, bool* totals_ok) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    best = std::min(best,
                    RunCounter(threads, num_records, initial, ops, totals_ok));
  }
  return best;
}

// ---- reader-under-write fixture --------------------------------------------

/// A minimal authorized environment: Acct(K,V,G) owned by authority A, all
/// attributes plaintext-visible to everyone (GrantAny), reader R, two
/// providers. Heap-allocated so Policy's internal catalog/subject pointers
/// stay valid (same pattern as tests/paper_example.h).
struct WriteEnv {
  Catalog catalog;
  SubjectRegistry subjects;
  std::unique_ptr<Policy> policy;
  SubjectId owner, reader;
  RelId acct;
};

std::unique_ptr<WriteEnv> MakeWriteEnv() {
  auto env = std::make_unique<WriteEnv>();
  WriteEnv& e = *env;
  e.owner = *e.subjects.Register("A", SubjectKind::kAuthority);
  e.reader = *e.subjects.Register("R", SubjectKind::kUser);
  (void)e.subjects.Register("P1", SubjectKind::kProvider);
  (void)e.subjects.Register("P2", SubjectKind::kProvider);
  using C = std::pair<std::string, DataType>;
  e.acct = *e.catalog.AddRelation(
      "Acct",
      {C{"K", DataType::kInt64}, C{"V", DataType::kInt64},
       C{"G", DataType::kInt64}},
      e.owner, 4096);
  e.policy = std::make_unique<Policy>(&e.catalog, &e.subjects);
  AttrSet all;
  for (const char* n : {"K", "V", "G"}) {
    all.Insert(e.catalog.attrs().Find(n));
  }
  (void)e.policy->Grant(e.acct, e.owner, all, {});
  (void)e.policy->Grant(e.acct, e.reader, all, {});
  (void)e.policy->GrantAny(e.acct, all, {});
  return env;
}

Table AcctData(const WriteEnv& e, int rows) {
  Table t = MakeBaseTable(e.catalog.Get(e.acct));
  for (int i = 0; i < rows; ++i) {
    t.AddRow({Cell(Value(int64_t{i})), Cell(Value(int64_t{i % 97})),
              Cell(Value(int64_t{i % 8}))});
  }
  return t;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      bench::ParseJsonFlag(&argc, argv, "BENCH_writes.json");
  int ops_per_thread = argc > 1 ? std::atoi(argv[1]) : 200000;
  int reps = argc > 2 ? std::atoi(argv[2]) : 3;
  if (ops_per_thread < 2) ops_per_thread = 2;
  ops_per_thread &= ~1;  // even: adds == subs, totals check exact
  if (reps < 1) reps = 1;

  constexpr size_t kMrvRecords = 16;
  const int64_t initial = 1 << 20;

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("writes");
  w.Key("ops_per_thread").Int(ops_per_thread);
  w.Key("mrv_records").UInt(kMrvRecords);
  bench::WriteRunMeta(&w);

  std::printf(
      "MRV (%zu records) vs single-record counter, %d ops/thread, "
      "best of %d reps\n\n",
      kMrvRecords, ops_per_thread, reps);
  std::printf("%8s %14s %14s %10s %8s\n", "writers", "single(Mops/s)",
              "mrv(Mops/s)", "mrv/single", "oversub");

  bool totals_ok = true;
  bool mrv_floor_ok = true;
  w.Key("counter_rows").BeginArray();
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    double single_s = BestCounter(reps, threads, /*num_records=*/1, initial,
                                  ops_per_thread, &totals_ok);
    double mrv_s = BestCounter(reps, threads, kMrvRecords, initial,
                               ops_per_thread, &totals_ok);
    double total_ops =
        static_cast<double>(threads) * static_cast<double>(ops_per_thread);
    double single_mops = total_ops / single_s / 1e6;
    double mrv_mops = total_ops / mrv_s / 1e6;
    double ratio = single_s / mrv_s;
    bool oversub = bench::Oversubscribed(threads);
    // The MRV claim only holds when the writers really run in parallel:
    // gate non-oversubscribed rows at >= 4 writers.
    if (!oversub && threads >= 4 && ratio < 1.0) mrv_floor_ok = false;
    std::printf("%8zu %14.2f %14.2f %9.2fx %8s\n", threads, single_mops,
                mrv_mops, ratio, oversub ? "yes" : "no");
    w.BeginObject();
    w.Key("threads").UInt(threads);
    w.Key("single_mops").Double(single_mops);
    w.Key("mrv_mops").Double(mrv_mops);
    w.Key("mrv_over_single").Double(ratio);
    w.Key("oversubscribed").Bool(oversub);
    w.EndObject();
  }
  w.EndArray();
  w.Key("counter_totals_ok").Bool(totals_ok);
  w.Key("mrv_floor_ok").Bool(mrv_floor_ok);

  // ---- reader p50 under write load ----------------------------------------

  auto env = MakeWriteEnv();
  constexpr int kBaseRows = 4096;
  constexpr size_t kWriters = 2;
  constexpr int kReads = 200;

  TableStore store;
  store.Put(env->acct, AcctData(*env, kBaseRows));
  PricingTable prices = PricingTable::PaperDefaults(env->subjects);
  Topology topo = Topology::PaperDefaults(env->subjects);
  ServiceConfig config;
  config.store = &store;
  QueryService service(&env->catalog, &env->subjects, env->policy.get(),
                       &prices, &topo, config);
  Session reader = *service.OpenSession(env->reader);
  Session writer = *service.OpenSession(env->owner);

  const std::string read_sql = "select G, sum(V) from Acct group by G";
  // Writers insert into group 9 (absent from the seed data), so this query
  // counts exactly the in-flight rows: snapshot atomicity bounds it by the
  // writer count.
  const std::string probe_sql = "select K from Acct where G = 9";

  auto timed_reads = [&](std::vector<double>* out, bool* visible_ok) {
    for (int i = 0; i < kReads; ++i) {
      auto t0 = Clock::now();
      Result<QueryResponse> r = service.ExecuteSql(read_sql, reader);
      auto t1 = Clock::now();
      if (!r.ok()) {
        std::printf("read error: %s\n", r.status().ToString().c_str());
        *visible_ok = false;
        return;
      }
      out->push_back(std::chrono::duration<double>(t1 - t0).count() * 1e3);
      if (i % 8 == 0) {
        Result<QueryResponse> p = service.ExecuteSql(probe_sql, reader);
        bool ok = p.ok() && p->table.num_rows() <= kWriters;
        if (!ok) *visible_ok = false;
      }
    }
  };

  bool visible_ok = true;
  std::vector<double> idle_ms;
  timed_reads(&idle_ms, &visible_ok);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      int64_t seq = 0;
      while (!stop.load(std::memory_order_acquire)) {
        int64_t k =
            1000000 + static_cast<int64_t>(t) * 1000000 + seq++;
        std::string ks = std::to_string(k);
        Result<WriteResult> ins = service.ExecuteWrite(
            "insert into Acct (K, V, G) values (" + ks + ", 0, 9)", writer);
        Result<WriteResult> del = service.ExecuteWrite(
            "delete from Acct where K = " + ks, writer);
        if (ins.ok() && del.ok()) commits.fetch_add(2);
      }
    });
  }
  std::vector<double> busy_ms;
  const ServiceMetrics busy0 = service.Metrics();
  timed_reads(&busy_ms, &visible_ok);
  const ServiceMetrics busy1 = service.Metrics();
  stop.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  const uint64_t busy_hits = busy1.cache_hits - busy0.cache_hits;
  const uint64_t busy_lookups =
      busy_hits + (busy1.cache_misses - busy0.cache_misses);
  const double busy_hit_rate =
      busy_lookups == 0 ? 0
                        : static_cast<double>(busy_hits) /
                              static_cast<double>(busy_lookups);

  double idle_p50 = Percentile(idle_ms, 0.50);
  double idle_p95 = Percentile(idle_ms, 0.95);
  double busy_p50 = Percentile(busy_ms, 0.50);
  double busy_p95 = Percentile(busy_ms, 0.95);
  std::printf(
      "\nreader (%d group-by queries, %zu writer threads churning "
      "snapshots):\n",
      kReads, kWriters);
  std::printf("  idle        p50 %.3f ms  p95 %.3f ms\n", idle_p50, idle_p95);
  std::printf("  under write p50 %.3f ms  p95 %.3f ms  (%llu commits)\n",
              busy_p50, busy_p95,
              static_cast<unsigned long long>(commits.load()));
  std::printf("  plan-cache hit rate under write: %.4f (%llu lookups)\n",
              busy_hit_rate, static_cast<unsigned long long>(busy_lookups));
  std::printf("  snapshot visibility (reader sees only committed writes): "
              "%s\n",
              visible_ok ? "ok" : "VIOLATED");

  w.Key("reader").BeginObject();
  w.Key("queries").Int(kReads);
  w.Key("writer_threads").UInt(kWriters);
  w.Key("writers_oversubscribed")
      .Bool(bench::Oversubscribed(kWriters + 1));  // writers + the reader
  w.Key("idle_p50_ms").Double(idle_p50);
  w.Key("idle_p95_ms").Double(idle_p95);
  w.Key("under_write_p50_ms").Double(busy_p50);
  w.Key("under_write_p95_ms").Double(busy_p95);
  w.Key("cache_hit_rate").Double(busy_hit_rate);
  w.Key("write_commits").UInt(commits.load());
  w.Key("snapshot_epoch").UInt(store.snapshot_epoch());
  w.Key("visibility_ok").Bool(visible_ok);
  w.EndObject();

  bool all_ok = totals_ok && mrv_floor_ok && visible_ok;
  w.Key("all_ok").Bool(all_ok);
  w.EndObject();
  bench::WriteJsonFile(json_path, w.TakeString());

  std::printf("counter totals exact: %s\n", totals_ok ? "yes" : "NO");
  std::printf("mrv >= single-record at >=4 real-core writers: %s\n",
              mrv_floor_ok ? "ok" : "BELOW FLOOR");
  std::printf("wrote %s\n", json_path.c_str());
  return all_ok ? 0 : 1;
}
