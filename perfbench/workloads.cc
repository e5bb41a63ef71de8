#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <thread>

#include "assign/assignment.h"
#include "assign/cost_model.h"
#include "assign/schemes.h"
#include "candidates/candidates.h"
#include "common/rng.h"
#include "exec/distributed.h"
#include "exec/executor.h"
#include "exec/table_store.h"
#include "exec/write_executor.h"
#include "extend/extend.h"
#include "extend/keys.h"
#include "ledger.h"
#include "net/simnet.h"
#include "profile/propagate.h"
#include "service/query_service.h"
#include "sql/binder.h"
#include "sql/normalize.h"
#include "sql/parser.h"
#include "testing/reference_exec.h"
#include "tpch/dbgen.h"
#include "tpch/scenarios.h"
#include "tpch/vocab.h"

namespace perfbench {

using namespace mpq;

namespace {

enum class Kind { kColdAdhoc, kWarmEnc, kWriteChurn, kAsyncOpen };

constexpr double kTinySf = 5e-5;
constexpr double kSmallSf = 0.01;
/// Set-up is timed in two rounds, before and after the timed phase, so its
/// median spans the run's wall time rather than one stretch of host speed.
/// A round repeats set-up at least kMinSetupReps times and until
/// kMinSetupSeconds are spent, at most kMaxSetupReps times.
constexpr size_t kMinSetupReps = 3;
constexpr size_t kMaxSetupReps = 100;
constexpr double kMinSetupSeconds = 0.5;
constexpr size_t kClients = 2;
/// async_open: rate steps (requests per second), the first is the base
/// step the end-to-end metrics are taken at. The top step offers more than
/// max_in_flight = 3 workers absorb in bursts, so both the admission cap
/// and the queue-depth cap (2 * max_in_flight) bind there.
constexpr double kRateSteps[] = {250, 1000, 2000};
constexpr double kArrivalSigma = 1.5;
/// async_open latency limit on read_tail_ms, and the drain time after a
/// step's last arrival beyond which its backlog counts as growing.
constexpr double kLatencyLimitMs = 20;
/// Closed loops: throughput_qps is the median rate over this many chunks.
constexpr size_t kRateChunks = 10;
/// async_open: a backlog that completes nothing for this long has stalled.
constexpr double kStallMs = 3000;

/// bench_service's five-statement TPC-H mix (Q6, Q3, Q10, Q12, Q18).
const std::vector<std::string>& Mix() {
  static const std::vector<std::string> m = {
      "select sum(l_extendedprice) from lineitem "
      "where l_shipdate >= 730 and l_shipdate < 1095 "
      "and l_discount >= 0.05 and l_discount <= 0.07 and l_quantity < 24.0",
      "select o_orderkey, o_orderdate, o_shippriority, sum(l_extendedprice) "
      "from customer join orders on c_custkey = o_custkey "
      "join lineitem on o_orderkey = l_orderkey "
      "where c_mktsegment = 'BUILDING' and o_orderdate < 1204 "
      "and l_shipdate > 1204 "
      "group by o_orderkey, o_orderdate, o_shippriority",
      "select c_custkey, c_name, n_name, sum(l_extendedprice) "
      "from customer join orders on c_custkey = o_custkey "
      "join lineitem on o_orderkey = l_orderkey "
      "join nation on c_nationkey = n_nationkey "
      "where o_orderdate >= 640 and o_orderdate < 730 "
      "and l_returnflag = 'R' group by c_custkey, c_name, n_name",
      "select l_shipmode, count(*) from orders "
      "join lineitem on o_orderkey = l_orderkey "
      "where l_shipmode = 'MAIL' and l_receiptdate >= 730 "
      "and l_receiptdate < 1095 and l_commitdate < l_receiptdate "
      "group by l_shipmode",
      "select o_custkey, sum(l_extendedprice) from orders "
      "join lineitem on o_orderkey = l_orderkey "
      "group by o_custkey having sum(l_extendedprice) > 1000.0",
  };
  return m;
}

template <typename T>
const T& Pick(const std::vector<T>& v, Rng& rng) {
  return v[rng.Uniform(v.size())];
}

/// Statement indices 0..n-1 in seeded random order, each block of n draws a
/// fresh permutation: every run serves the mix in the same proportions, so
/// latency percentiles do not shift with how often the seed drew the
/// heaviest statement.
class StatementCycle {
 public:
  StatementCycle(size_t n, Rng* rng) : order_(n), rng_(rng) {
    for (size_t i = 0; i < n; ++i) order_[i] = static_cast<uint32_t>(i);
  }

  uint32_t Next() {
    if (pos_ == 0) {
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_->Uniform(i)]);
      }
    }
    uint32_t s = order_[pos_];
    pos_ = (pos_ + 1) % order_.size();
    return s;
  }

 private:
  std::vector<uint32_t> order_;
  size_t pos_ = 0;
  Rng* rng_;
};

/// A fresh constant draw of template `tmpl` (0..4, the mix's statements in
/// order). The constant space (millions of combinations per template)
/// dwarfs the plan cache's 256 entries, so draws essentially never repeat.
std::string ColdStatement(uint32_t tmpl, Rng& rng) {
  char buf[640];
  switch (tmpl) {
    case 0: {
      int64_t d0 = rng.Range(0, 2190);
      int64_t disc = rng.Range(2, 8);
      std::snprintf(buf, sizeof(buf),
                    "select sum(l_extendedprice) from lineitem "
                    "where l_shipdate >= %lld and l_shipdate < %lld "
                    "and l_discount >= 0.%02lld and l_discount <= 0.%02lld "
                    "and l_quantity < %lld.0",
                    static_cast<long long>(d0),
                    static_cast<long long>(d0 + rng.Range(300, 400)),
                    static_cast<long long>(disc),
                    static_cast<long long>(disc + 2),
                    static_cast<long long>(rng.Range(10, 40)));
      break;
    }
    case 1:
      std::snprintf(buf, sizeof(buf),
                    "select o_orderkey, o_orderdate, o_shippriority, "
                    "sum(l_extendedprice) "
                    "from customer join orders on c_custkey = o_custkey "
                    "join lineitem on o_orderkey = l_orderkey "
                    "where c_mktsegment = '%s' and o_orderdate < %lld "
                    "and l_shipdate > %lld "
                    "group by o_orderkey, o_orderdate, o_shippriority",
                    Pick(tpch::Segments(), rng).c_str(),
                    static_cast<long long>(rng.Range(800, 1600)),
                    static_cast<long long>(rng.Range(800, 1600)));
      break;
    case 2: {
      int64_t d0 = rng.Range(0, 2400);
      std::snprintf(buf, sizeof(buf),
                    "select c_custkey, c_name, n_name, sum(l_extendedprice) "
                    "from customer join orders on c_custkey = o_custkey "
                    "join lineitem on o_orderkey = l_orderkey "
                    "join nation on c_nationkey = n_nationkey "
                    "where o_orderdate >= %lld and o_orderdate < %lld "
                    "and l_returnflag = '%s' "
                    "group by c_custkey, c_name, n_name",
                    static_cast<long long>(d0),
                    static_cast<long long>(d0 + rng.Range(30, 120)),
                    Pick(tpch::ReturnFlags(), rng).c_str());
      break;
    }
    case 3: {
      int64_t d0 = rng.Range(0, 2190);
      std::snprintf(buf, sizeof(buf),
                    "select l_shipmode, count(*) from orders "
                    "join lineitem on o_orderkey = l_orderkey "
                    "where l_shipmode = '%s' and l_receiptdate >= %lld "
                    "and l_receiptdate < %lld "
                    "and l_commitdate < l_receiptdate group by l_shipmode",
                    Pick(tpch::ShipModes(), rng).c_str(),
                    static_cast<long long>(d0),
                    static_cast<long long>(d0 + rng.Range(300, 400)));
      break;
    }
    default:
      std::snprintf(buf, sizeof(buf),
                    "select o_custkey, sum(l_extendedprice) from orders "
                    "join lineitem on o_orderkey = l_orderkey "
                    "group by o_custkey having sum(l_extendedprice) > %lld.0",
                    static_cast<long long>(rng.Range(500, 300000)));
      break;
  }
  return buf;
}

/// Everything one workload instance serves from. Heap-allocated and never
/// moved: the policy, service and runtimes borrow the environment.
struct Fixture {
  Kind kind = Kind::kColdAdhoc;
  TpchEnv env;
  TpchData db;
  std::unique_ptr<Policy> policy;
  std::unique_ptr<PricingTable> prices;
  std::unique_ptr<Topology> topo;
  std::unique_ptr<TableStore> store;
  std::unique_ptr<SimNet> net;
  std::unique_ptr<QueryService> service;
  Session session;
  std::vector<StatementHandle> mix;

  Fixture() : env(MakeTpchEnv(/*costing_sf=*/1.0, /*num_providers=*/8)) {}
};

/// Data generation, service construction, table load and cache warm-up.
std::unique_ptr<Fixture> Setup(Kind kind, uint64_t seed, std::string* error) {
  auto f = std::make_unique<Fixture>();
  f->kind = kind;
  bool small = kind == Kind::kWarmEnc || kind == Kind::kWriteChurn;
  f->db = GenerateTpch(f->env, small ? kSmallSf : kTinySf,
                       SplitMix64(seed ^ 0xda7a));
  Result<Policy> policy = MakeScenarioPolicy(
      f->env,
      kind == Kind::kWriteChurn ? AuthScenario::kUA : AuthScenario::kUAPenc);
  if (!policy.ok()) {
    *error = "policy: " + policy.status().ToString();
    return nullptr;
  }
  f->policy = std::make_unique<Policy>(std::move(*policy));
  f->prices = std::make_unique<PricingTable>(MakeScenarioPricing(f->env));
  f->topo = std::make_unique<Topology>(MakeScenarioTopology(f->env));

  ServiceConfig config;
  switch (kind) {
    case Kind::kColdAdhoc:
      config.exec_threads = 0;
      break;
    case Kind::kWarmEnc:
      config.exec_threads = 2;
      f->net = std::make_unique<SimNet>(&f->env.subjects);
      f->net->ConfigureFromTopology(*f->topo, f->env.subjects);
      config.net = f->net.get();
      break;
    case Kind::kWriteChurn:
      config.exec_threads = 2;
      f->store = std::make_unique<TableStore>();
      for (const auto& [rel, t] : f->db.tables) f->store->Put(rel, t);
      config.store = f->store.get();
      break;
    case Kind::kAsyncOpen:
      config.exec_threads = 3;
      config.max_in_flight = 3;
      break;
  }
  f->service = std::make_unique<QueryService>(
      &f->env.catalog, &f->env.subjects, f->policy.get(), f->prices.get(),
      f->topo.get(), config);
  if (f->store == nullptr) {
    for (const auto& [rel, t] : f->db.tables) f->service->LoadTable(rel, &t);
  }
  Result<Session> session = f->service->OpenSession(f->env.user);
  if (!session.ok()) {
    *error = "session: " + session.status().ToString();
    return nullptr;
  }
  f->session = *session;
  // Warm-up: one run of each mix statement fills the plan cache for the
  // mix workloads and finishes the service's lazy set-up for all of them.
  // cold_adhoc's timed draws never repeat these statements, so they still
  // miss.
  for (const std::string& sql : Mix()) {
    Result<StatementHandle> h = f->service->Prepare(sql);
    if (!h.ok()) {
      *error = "prepare: " + h.status().ToString();
      return nullptr;
    }
    Result<QueryResponse> warm = f->service->Execute(*h, f->session);
    if (!warm.ok()) {
      *error = "warm-up: " + warm.status().ToString();
      return nullptr;
    }
    f->mix.push_back(*h);
  }
  return f;
}

/// Reference result digest of `sql` from the row-path oracle over `tables`.
Result<uint64_t> OracleDigest(const ReferenceExecutor& oracle,
                              const Catalog& catalog, const std::string& sql) {
  MPQ_ASSIGN_OR_RETURN(PlanPtr plan, PlanFromSql(sql, catalog));
  MPQ_ASSIGN_OR_RETURN(Table t, oracle.Run(plan.get()));
  return TableDigest(t);
}

// ---------------------------------------------------------------- records

struct ReadRec {
  uint32_t stmt = 0;       ///< Mix index (cold_adhoc: template index).
  uint64_t snapshot = 0;   ///< Store snapshot the read pinned.
  uint64_t digest = 0;
  std::string sql;         ///< cold_adhoc only: the drawn statement.
};

enum class WriteKind { kInsert, kDelete, kUpdate };

struct WriteRec {
  std::string sql;
  uint64_t snapshot = 0;
};

/// What one client (or the generator) observed.
struct ClientOut {
  std::vector<double> read_ms;
  std::vector<Clock::time_point> read_done;  ///< Completion of each read.
  std::vector<double> write_ms;
  uint64_t read_errors = 0;
  uint64_t write_errors = 0;
  uint64_t sheds = 0;
  std::vector<ReadRec> reads;
  std::vector<WriteRec> writes;
  double transfer_bytes = 0;
  double cost_usd = 0;
  std::string first_error;
  LayerLedger ledger;
  SpanLog spans;

  explicit ClientOut(Clock::time_point epoch) : spans(epoch) {}

  void Error(const Status& st) {
    if (first_error.empty()) first_error = st.ToString();
  }
};

// ---------------------------------------------------------------- tracing

/// Re-plans `normalized_sql` by calling the planning modules' public
/// functions in the order QueryService::BuildPreparedPlan calls them,
/// timing each call. Run after a request the service reported as a cache
/// miss; returns the summed module time in ms.
Result<double> ShadowPlan(const Fixture& f, const std::string& normalized_sql,
                          uint64_t request, int parent, ClientOut* out) {
  LayerLedger& L = out->ledger;
  SpanLog& spans = out->spans;
  const Catalog& catalog = f.env.catalog;
  const SchemeCaps caps = f.service->config().caps;
  double sum = 0;
  auto timed = [&](const char* name, double* acc, auto&& fn) {
    auto a = Clock::now();
    auto r = fn();
    auto b = Clock::now();
    double ms = MsBetween(a, b);
    *acc += ms;
    sum += ms;
    spans.Add(name, request, parent, a, b);
    return r;
  };

  Result<AstSelect> ast = timed("sql.parse", &L.parse_ms,
                                [&] { return ParseSelect(normalized_sql); });
  MPQ_RETURN_NOT_OK(ast.status());
  Result<PlanPtr> plan =
      timed("sql.bind", &L.bind_ms, [&] { return BindSelect(*ast, catalog); });
  MPQ_RETURN_NOT_OK(plan.status());
  PlanNode* root = plan->get();
  Status st = timed("profile.annotate", &L.annotate_ms, [&] {
    Status s = DerivePlaintextNeeds(root, catalog, caps);
    return s.ok() ? AnnotatePlan(root, catalog) : s;
  });
  MPQ_RETURN_NOT_OK(st);
  Result<CandidatePlan> cp = timed("candidates.compute", &L.candidates_ms, [&] {
    return ComputeCandidates(root, *f.policy, /*require_nonempty=*/true);
  });
  MPQ_RETURN_NOT_OK(cp.status());
  for (const auto& [id, nc] : cp->nodes) {
    (void)id;
    L.candidate_nodes++;
    L.candidate_subjects += nc.candidates.size();
  }
  SchemeMap schemes;
  Result<AssignmentResult> assignment =
      timed("assign.optimize", &L.optimize_ms, [&] {
        schemes = AnalyzeSchemes(root, catalog, caps);
        CostModel cost_model(&catalog, f.prices.get(), f.topo.get(),
                             &schemes);
        AssignmentOptimizer optimizer(f.policy.get(), &cost_model);
        return optimizer.Optimize(root, *cp, f.env.user);
      });
  MPQ_RETURN_NOT_OK(assignment.status());
  st = timed("extend.verify", &L.verify_ms, [&] {
    return VerifyAuthorizedAssignment(assignment->extended, *f.policy);
  });
  MPQ_RETURN_NOT_OK(st);
  // The service re-derives the refined estimates for EXPLAIN ANALYZE inside
  // its assignment span; time it with the optimizer.
  timed("assign.optimize", &L.optimize_ms, [&] {
    CostModel refined(&catalog, f.prices.get(), f.topo.get(),
                      &assignment->refined_schemes);
    return refined.EstimatePlan(assignment->extended.plan.get()).size();
  });
  PlanKeys keys = timed("extend.plan_keys", &L.plan_keys_ms, [&] {
    return DeriveQueryPlanKeys(assignment->extended);
  });
  L.key_groups += keys.groups.size();
  std::shared_ptr<const Snapshot> snapshot =
      f.store != nullptr ? f.store->Current() : nullptr;
  timed("crypto.keygen", &L.keygen_ms, [&] {
    DistributedRuntime runtime(&catalog, &f.env.subjects);
    if (snapshot != nullptr) {
      for (const auto& [rel, t] : snapshot->tables) {
        runtime.LoadTableRef(rel, t.get());
      }
    } else {
      for (const auto& [rel, t] : f.db.tables) runtime.LoadTableRef(rel, &t);
    }
    runtime.DistributeKeys(keys, f.env.user, SplitMix64(request));
    runtime.SetCryptoPlan(MakeCryptoPlan(assignment->refined_schemes, keys));
    return 0;
  });
  L.shadow_plans++;
  return sum;
}

/// Folds one completed read's QueryStats into the ledger and span log.
/// `start` is when the request was due (async) or called (closed loop);
/// `e2e_ms` the latency measured from it.
void TraceRead(const Fixture& f, const QueryResponse& r,
               const std::string& normalized_sql, uint64_t request,
               Clock::time_point start, double e2e_ms, ClientOut* out) {
  LayerLedger& L = out->ledger;
  const QueryStats& s = r.stats;
  double total = s.total_s * 1e3, plan = s.plan_s * 1e3, exec = s.exec_s * 1e3;
  double wait = std::max(0.0, e2e_ms - total);
  int root = out->spans.AddDuration("request", request, -1, start, e2e_ms);
  auto svc_start = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(wait));
  int svc = out->spans.AddDuration("service", request, root, svc_start, total);
  bool hit = s.cache == CacheOutcome::kHit;
  out->spans.AddDuration(hit ? "service.cache_probe" : "service.plan_build",
                         request, svc, svc_start, plan);
  out->spans.AddDuration(
      "exec.run", request, svc,
      svc_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(plan)),
      exec);
  L.reads++;
  L.e2e_ms += e2e_ms;
  L.total_ms += total;
  L.exec_ms += exec;
  L.queue_wait_ms += wait;
  L.transfer_bytes += s.transfer_bytes;
  L.messages += s.num_messages;
  L.net_virtual_ms += s.net_virtual_s * 1e3;
  if (hit) {
    L.hits++;
    L.plan_hit_ms += plan;
    return;
  }
  L.misses++;
  L.plan_miss_ms += plan;
  Result<double> shadow = ShadowPlan(f, normalized_sql, request, root, out);
  if (!shadow.ok()) {
    out->Error(shadow.status());
    L.unattributed_ms += plan;
    return;
  }
  L.unattributed_ms += std::max(0.0, plan - *shadow);
}

// ------------------------------------------------------------ closed loops

std::string WriteSql(WriteKind kind, int64_t key, int64_t value) {
  char buf[320];
  switch (kind) {
    case WriteKind::kInsert:
      std::snprintf(buf, sizeof(buf),
                    "insert into orders (o_orderkey, o_custkey, "
                    "o_orderstatus, o_totalprice, o_orderdate, "
                    "o_orderpriority, o_shippriority) "
                    "values (%lld, %lld, 'O', 1000.5, 1000, '1-URGENT', 0)",
                    static_cast<long long>(key),
                    static_cast<long long>(value));
      break;
    case WriteKind::kDelete:
      std::snprintf(buf, sizeof(buf),
                    "delete from orders where o_orderkey = %lld",
                    static_cast<long long>(key));
      break;
    case WriteKind::kUpdate:
      std::snprintf(buf, sizeof(buf),
                    "update orders set o_orderdate = %lld "
                    "where o_orderkey = %lld",
                    static_cast<long long>(value),
                    static_cast<long long>(key));
      break;
  }
  return buf;
}

/// One write through the write path's modules (traced) or ExecuteWrite.
Result<WriteResult> DoWrite(Fixture& f, const std::string& sql, bool traced,
                            uint64_t request, ClientOut* out) {
  if (!traced) return f.service->ExecuteWrite(sql, f.session);
  LayerLedger& L = out->ledger;
  auto a = Clock::now();
  Result<BoundWrite> bound = [&]() -> Result<BoundWrite> {
    MPQ_ASSIGN_OR_RETURN(std::string normalized, NormalizeSql(sql));
    MPQ_ASSIGN_OR_RETURN(AstStatement ast, ParseStatement(normalized));
    return BindWrite(ast, f.env.catalog);
  }();
  auto b = Clock::now();
  if (!bound.ok()) return bound.status();
  WriteExecutor writer(f.policy.get(), f.store.get());
  Result<WriteResult> r = writer.Execute(*bound, f.env.user);
  auto c = Clock::now();
  int root = out->spans.Add("write", request, -1, a, c);
  out->spans.Add("sql.write_bind", request, root, a, b);
  out->spans.Add("exec.write_commit", request, root, b, c);
  L.writes++;
  L.write_commit_ms += MsBetween(b, c);
  L.e2e_ms += MsBetween(a, c);
  return r;
}

void ClosedLoopClient(Fixture& f, uint64_t seed, size_t client,
                      Clock::time_point deadline, bool traced,
                      ClientOut* out) {
  Rng rng(SplitMix64(seed * 0x9e3779b97f4a7c15ull + client + 1));
  StatementCycle cycle(Mix().size(), &rng);
  const int64_t num_orders =
      static_cast<int64_t>(f.db.at(f.env.orders).num_rows());
  int64_t next_key = 100000000 + static_cast<int64_t>(client) * 10000000;
  int64_t pending_delete = -1;
  int write_phase = 0;
  for (uint64_t n = 0; Clock::now() < deadline; ++n) {
    uint64_t request = (static_cast<uint64_t>(client) << 40) | n;
    if (f.kind == Kind::kWriteChurn && n % 4 == 3) {
      // Insert, delete the inserted key, update an original order: table
      // size stays stationary.
      WriteKind kind = write_phase == 0   ? WriteKind::kInsert
                       : write_phase == 1 ? WriteKind::kDelete
                                          : WriteKind::kUpdate;
      write_phase = (write_phase + 1) % 3;
      std::string sql;
      if (kind == WriteKind::kInsert) {
        pending_delete = next_key++;
        sql = WriteSql(kind, pending_delete, rng.Range(1, 1500));
      } else if (kind == WriteKind::kDelete) {
        sql = WriteSql(kind, pending_delete, 0);
      } else {
        sql = WriteSql(kind, rng.Range(1, num_orders),
                       rng.Range(tpch::kMinDate, tpch::kMaxDate));
      }
      auto a = Clock::now();
      Result<WriteResult> w = DoWrite(f, sql, traced, request, out);
      auto b = Clock::now();
      if (!w.ok()) {
        out->write_errors++;
        out->Error(w.status());
        continue;
      }
      out->write_ms.push_back(MsBetween(a, b));
      out->writes.push_back({std::move(sql), w->snapshot_id});
      continue;
    }

    ReadRec rec;
    std::string normalized;
    Result<QueryResponse> r = Status::Internal("unset");
    auto a = Clock::now();
    if (f.kind == Kind::kColdAdhoc) {
      rec.stmt = cycle.Next();
      rec.sql = ColdStatement(rec.stmt, rng);
      a = Clock::now();
      r = f.service->ExecuteSql(rec.sql, f.session);
    } else {
      rec.stmt = cycle.Next();
      a = Clock::now();
      r = f.service->Execute(f.mix[rec.stmt], f.session);
    }
    auto b = Clock::now();
    if (!r.ok()) {
      out->read_errors++;
      out->Error(r.status());
      continue;
    }
    double ms = MsBetween(a, b);
    out->read_ms.push_back(ms);
    out->read_done.push_back(b);
    rec.snapshot = r->stats.snapshot_id;
    rec.digest = TableDigest(r->table);
    out->transfer_bytes += static_cast<double>(r->stats.transfer_bytes);
    out->cost_usd += r->stats.planned_cost_usd;
    if (traced) {
      if (f.kind == Kind::kColdAdhoc) {
        Result<std::string> norm = NormalizeSql(rec.sql);
        if (norm.ok()) normalized = *norm;
      } else {
        normalized = f.mix[rec.stmt].normalized_sql;
      }
      TraceRead(f, *r, normalized, request, a, ms, out);
    }
    out->reads.push_back(std::move(rec));
  }
}

// -------------------------------------------------------------- async_open

/// Per-rate-step outcome of the open loop.
struct StepOut {
  double rate = 0;
  double seconds = 0;
  size_t offered = 0;
  size_t completed = 0;
  size_t sheds = 0;
  size_t errors = 0;
  std::vector<double> latency_ms;  ///< Completed requests, from due time.
  double gen_late_ms_max = 0;
  size_t backlog_at_last_arrival = 0;
  double drain_ms = 0;  ///< Last arrival → last completion.
  size_t stalled = 0;   ///< Requests still pending when the step stalled.
};

/// Lognormal inter-arrival gaps with mean 1/rate (seconds), from `rng`.
double LognormalGap(Rng& rng, double rate) {
  double mu = std::log(1.0 / rate) - kArrivalSigma * kArrivalSigma / 2;
  double u1 = std::max(rng.NextDouble(), 1e-12);
  double u2 = rng.NextDouble();
  double z = std::sqrt(-2 * std::log(u1)) * std::cos(2 * M_PI * u2);
  return std::exp(mu + kArrivalSigma * z);
}

/// Drives the rate steps in order. Sets `*stalled` (and stops) when a step's
/// backlog stops completing; the service is then wedged and must not be
/// destroyed.
void OpenLoopGenerator(Fixture& f, uint64_t seed, double seconds, bool traced,
                       ClientOut* out, std::vector<StepOut>* steps,
                       bool* stalled) {
  Rng rng(SplitMix64(seed * 0x2545f4914f6cdd1dull + 77));
  StatementCycle cycle(f.mix.size(), &rng);
  struct Pending {
    std::shared_ptr<AsyncQuery> q;
    Clock::time_point due;
    uint32_t stmt;
    uint64_t request;
    StepOut* step;
  };
  std::vector<Pending> pending;
  auto poll = [&] {
    for (size_t i = 0; i < pending.size();) {
      if (!pending[i].q->Done()) {
        ++i;
        continue;
      }
      Pending p = std::move(pending[i]);
      pending[i] = std::move(pending.back());
      pending.pop_back();
      auto now = Clock::now();
      const Result<QueryResponse>& r = p.q->Wait();
      if (!r.ok()) {
        p.step->errors++;
        out->read_errors++;
        out->Error(r.status());
        continue;
      }
      double ms = MsBetween(p.due, now);
      p.step->completed++;
      p.step->latency_ms.push_back(ms);
      out->read_ms.push_back(ms);
      out->read_done.push_back(now);
      ReadRec rec;
      rec.stmt = p.stmt;
      rec.digest = TableDigest(r->table);
      out->reads.push_back(std::move(rec));
      out->transfer_bytes += static_cast<double>(r->stats.transfer_bytes);
      out->cost_usd += r->stats.planned_cost_usd;
      if (traced) {
        TraceRead(f, *r, f.mix[p.stmt].normalized_sql, p.request, p.due, ms,
                  out);
      }
    }
  };

  const size_t num_steps = std::size(kRateSteps);
  uint64_t request = 0;
  for (size_t s = 0; s < num_steps; ++s) {
    StepOut& step = (*steps)[s];
    step.rate = kRateSteps[s];
    step.seconds = seconds / static_cast<double>(num_steps);
    std::vector<double> arrivals;
    for (double t = LognormalGap(rng, step.rate); t < step.seconds;
         t += LognormalGap(rng, step.rate)) {
      arrivals.push_back(t);
    }
    auto t0 = Clock::now();
    Clock::time_point last_due = t0;
    for (double at : arrivals) {
      auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(at));
      for (;;) {
        poll();
        auto now = Clock::now();
        if (now >= due) break;
        if (due - now > std::chrono::microseconds(300)) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        } else {
          std::this_thread::yield();
        }
      }
      uint32_t stmt = cycle.Next();
      auto submit = Clock::now();
      double late = MsBetween(due, submit);
      step.gen_late_ms_max = std::max(step.gen_late_ms_max, late);
      out->ledger.gen_late_ms += late;
      out->ledger.submitted++;
      step.offered++;
      last_due = due;
      Result<std::shared_ptr<AsyncQuery>> q =
          f.service->ExecuteAsync(f.mix[stmt], f.session);
      if (!q.ok()) {
        step.sheds++;
        out->sheds++;
        continue;
      }
      pending.push_back({*q, due, stmt, request++, &step});
    }
    step.backlog_at_last_arrival = pending.size();
    // Drain the step's backlog. A backlog that completes nothing for
    // kStallMs is a stalled service: the step and the run end there.
    auto last_progress = Clock::now();
    size_t done_before = step.completed + step.errors;
    while (!pending.empty()) {
      poll();
      auto now = Clock::now();
      if (step.completed + step.errors != done_before) {
        done_before = step.completed + step.errors;
        last_progress = now;
      } else if (MsBetween(last_progress, now) > kStallMs) {
        step.stalled = pending.size();
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    step.drain_ms = std::max(0.0, MsBetween(last_due, Clock::now()));
    if (step.stalled > 0) {
      *stalled = true;
      return;
    }
  }
}

/// read_tail_ms of a step: failed requests count as missing the limit.
double StepTail(const StepOut& s, double* rank) {
  std::vector<double> v = s.latency_ms;
  for (size_t i = 0; i < s.sheds + s.errors + s.stalled; ++i) {
    v.push_back(std::numeric_limits<double>::infinity());
  }
  std::sort(v.begin(), v.end());
  *rank = TailRank(v.size());
  return Percentile(v, *rank);
}

// ------------------------------------------------------------ verification

/// Checks every read of a fixed-mix workload against the oracle's result
/// for its statement. Returns the mismatch count.
uint64_t VerifyMix(const Fixture& f, const std::vector<ClientOut>& outs,
                   std::string* error) {
  ReferenceExecutor oracle(&f.env.catalog);
  for (const auto& [rel, t] : f.db.tables) oracle.LoadTable(rel, &t);
  std::vector<uint64_t> ref;
  for (const std::string& sql : Mix()) {
    Result<uint64_t> d = OracleDigest(oracle, f.env.catalog, sql);
    if (!d.ok()) {
      *error = "oracle: " + d.status().ToString();
      return 1;
    }
    ref.push_back(*d);
  }
  uint64_t bad = 0;
  for (const ClientOut& o : outs) {
    for (const ReadRec& r : o.reads) bad += r.digest != ref[r.stmt];
  }
  return bad;
}

uint64_t VerifyCold(const Fixture& f, const std::vector<ClientOut>& outs,
                    std::string* error) {
  ReferenceExecutor oracle(&f.env.catalog);
  for (const auto& [rel, t] : f.db.tables) oracle.LoadTable(rel, &t);
  uint64_t bad = 0;
  for (const ClientOut& o : outs) {
    for (const ReadRec& r : o.reads) {
      Result<uint64_t> d = OracleDigest(oracle, f.env.catalog, r.sql);
      if (!d.ok()) {
        if (error->empty()) *error = "oracle: " + d.status().ToString();
        ++bad;
        continue;
      }
      bad += *d != r.digest;
    }
  }
  return bad;
}

/// write_churn: replays the acknowledged writes serially, in snapshot
/// order, on a fresh store loaded like the live one. Every read is checked
/// against the single-site columnar engine over the replayed snapshot it
/// pinned, and the final replayed orders table must equal the live one.
/// Part `part` of `parts` checks every parts-th read and replays all
/// writes; part 0 also checks the final snapshot.
uint64_t VerifyChurnPart(const Fixture& f,
                         const std::vector<const ClientOut*>& outs,
                         size_t part, size_t parts, std::string* error) {
  std::vector<const WriteRec*> writes;
  std::map<uint64_t, std::vector<const ReadRec*>> reads_at;
  size_t n = 0;
  for (const ClientOut* o : outs) {
    for (const WriteRec& w : o->writes) writes.push_back(&w);
    for (const ReadRec& r : o->reads) {
      if (n++ % parts == part) reads_at[r.snapshot].push_back(&r);
    }
  }
  std::sort(writes.begin(), writes.end(),
            [](const WriteRec* a, const WriteRec* b) {
              return a->snapshot < b->snapshot;
            });

  std::vector<PlanPtr> plans;
  for (const std::string& sql : Mix()) {
    Result<PlanPtr> p = PlanFromSql(sql, f.env.catalog);
    if (!p.ok() || !AnnotatePlan(p->get(), f.env.catalog).ok()) {
      *error = "reference plan failed to bind";
      return 1;
    }
    plans.push_back(std::move(*p));
  }

  TableStore replay;
  for (const auto& [rel, t] : f.db.tables) replay.Put(rel, t);
  WriteExecutor writer(f.policy.get(), &replay);
  uint64_t bad = 0;
  auto check_reads = [&](uint64_t snapshot_id) {
    auto it = reads_at.find(snapshot_id);
    if (it == reads_at.end()) return;
    std::shared_ptr<const Snapshot> snap = replay.Current();
    for (const ReadRec* r : it->second) {
      ExecContext ctx;
      ctx.catalog = &f.env.catalog;
      for (const auto& [rel, t] : snap->tables) ctx.base_tables[rel] = t.get();
      Result<Table> t = ExecutePlan(plans[r->stmt].get(), &ctx);
      bad += !t.ok() || TableDigest(*t) != r->digest;
    }
    reads_at.erase(it);
  };
  check_reads(replay.snapshot_epoch());
  for (const WriteRec* w : writes) {
    Result<BoundWrite> bound = [&]() -> Result<BoundWrite> {
      MPQ_ASSIGN_OR_RETURN(AstStatement ast, ParseStatement(w->sql));
      return BindWrite(ast, f.env.catalog);
    }();
    Result<WriteResult> r =
        bound.ok() ? writer.Execute(*bound, f.env.user)
                   : Result<WriteResult>(bound.status());
    if (!r.ok() || r->snapshot_id != w->snapshot) {
      if (error->empty()) {
        *error = "serial replay diverged at snapshot " +
                 std::to_string(w->snapshot);
      }
      return bad + (part == 0 ? 1 : 0);  // every part sees it; count once
    }
    check_reads(w->snapshot);
  }
  // Reads pinned to snapshots no acknowledged write produced.
  for (const auto& [id, rs] : reads_at) bad += rs.size();
  if (part != 0) return bad;

  std::shared_ptr<const Snapshot> live = f.store->Current();
  std::shared_ptr<const Snapshot> serial = replay.Current();
  if (live->id != serial->id ||
      TableDigest(*live->Get(f.env.orders)) !=
          TableDigest(*serial->Get(f.env.orders))) {
    if (error->empty()) *error = "final snapshot differs from serial replay";
    ++bad;
  }
  return bad;
}

// ------------------------------------------------------------------ report

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

double SafeDiv(double a, double b) { return b > 0 ? a / b : 0; }

Kind ParseKind(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "cold_adhoc") return Kind::kColdAdhoc;
  if (name == "warm_enc") return Kind::kWarmEnc;
  if (name == "write_churn") return Kind::kWriteChurn;
  if (name == "async_open") return Kind::kAsyncOpen;
  *ok = false;
  return Kind::kColdAdhoc;
}

/// One timed phase over a set-up fixture: the closed-loop clients or the
/// open-loop generator, for `seconds`.
struct Phase {
  std::vector<ClientOut> outs;
  std::vector<StepOut> steps;
  Clock::time_point t0;
  double wall_s = 0;
  bool stalled = false;  ///< async_open only: the service wedged.
};

Phase RunPhase(Fixture& f, uint64_t seed, double seconds, bool traced,
               Clock::time_point epoch) {
  Phase p;
  auto t0 = Clock::now();
  p.t0 = t0;
  if (f.kind == Kind::kAsyncOpen) {
    p.outs.emplace_back(epoch);
    p.steps.resize(std::size(kRateSteps));
    OpenLoopGenerator(f, seed, seconds, traced, &p.outs[0], &p.steps,
                      &p.stalled);
  } else {
    for (size_t c = 0; c < kClients; ++c) p.outs.emplace_back(epoch);
    auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&f, &p, seed, c, deadline, traced] {
        ClosedLoopClient(f, seed, c, deadline, traced, &p.outs[c]);
      });
    }
    for (auto& t : threads) t.join();
  }
  p.wall_s = MsBetween(t0, Clock::now()) / 1e3;
  return p;
}

/// Completed reads per second, as the median over kRateChunks chunks of
/// equally many completions, each timed from the previous chunk's last
/// completion (the first from the phase start). A stretch of slow host in
/// one part of the run moves one chunk's rate, not the figure.
double ChunkedRate(std::vector<Clock::time_point> done, Clock::time_point t0) {
  std::sort(done.begin(), done.end());
  const size_t k = std::min(kRateChunks, done.size());
  std::vector<double> rates;
  Clock::time_point prev = t0;
  for (size_t c = 0; c < k; ++c) {
    size_t begin = done.size() * c / k;
    size_t end = done.size() * (c + 1) / k;
    rates.push_back(SafeDiv(static_cast<double>(end - begin),
                            MsBetween(prev, done[end - 1]) / 1e3));
    prev = done[end - 1];
  }
  return Median(rates);
}

struct ReadSummary {
  size_t reads = 0;
  double rate = 0;  ///< throughput_qps
  size_t failures = 0;
  double p50 = 0, tail = 0, rank = 0.5;
  /// Transfer and plan cost are summed over every completed read of the
  /// phase (all rate steps for async_open), and divided by all_reads.
  double transfer_bytes = 0, cost_usd = 0, all_reads = 0;
};

/// End-to-end read figures of a phase. async_open reports its base step.
ReadSummary SummarizeReads(const Phase& p) {
  ReadSummary s;
  std::vector<double> lat;
  if (!p.steps.empty()) {
    const StepOut& base = p.steps[0];
    lat = base.latency_ms;
    s.failures = base.sheds + base.errors + base.stalled;
    s.rate = SafeDiv(static_cast<double>(lat.size()), base.seconds);
  } else {
    std::vector<Clock::time_point> done;
    for (const ClientOut& o : p.outs) {
      lat.insert(lat.end(), o.read_ms.begin(), o.read_ms.end());
      done.insert(done.end(), o.read_done.begin(), o.read_done.end());
      s.failures += o.read_errors;
    }
    s.rate = ChunkedRate(std::move(done), p.t0);
  }
  for (const ClientOut& o : p.outs) {
    s.transfer_bytes += o.transfer_bytes;
    s.cost_usd += o.cost_usd;
    s.all_reads += static_cast<double>(o.read_ms.size());
  }
  s.reads = lat.size();
  std::sort(lat.begin(), lat.end());
  s.p50 = Percentile(lat, 0.5);
  for (size_t i = 0; i < s.failures; ++i) {
    lat.push_back(std::numeric_limits<double>::infinity());
  }
  s.rank = TailRank(lat.size());
  s.tail = Percentile(lat, s.rank);
  return s;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cold_adhoc", "warm_enc",
                                                 "write_churn", "async_open"};
  return names;
}


namespace {

double SafeDivU(uint64_t a, uint64_t b) {
  return SafeDiv(static_cast<double>(a), static_cast<double>(b));
}

/// Operator counters accumulated between two metrics snapshots.
OpCounterSnapshot OpDelta(const ServiceMetrics& m0, const ServiceMetrics& m1,
                          OpKind k) {
  const OpCounterSnapshot& a = m0.ops.of(k);
  const OpCounterSnapshot& b = m1.ops.of(k);
  OpCounterSnapshot d;
  d.calls = b.calls - a.calls;
  d.ns = b.ns - a.ns;
  d.rows_in = b.rows_in - a.rows_in;
  d.rows_out = b.rows_out - a.rows_out;
  d.hom_folds = b.hom_folds - a.hom_folds;
  return d;
}

/// What the traced run observed besides the clients' ledgers: service
/// metrics and store epochs before and after the traced phase.
struct TraceWindow {
  ServiceMetrics m0, m1;
  uint64_t epoch0 = 0, epoch1 = 0;
};

/// The per-layer metrics of the traced run. `untraced` and `traced` are the
/// two halves of the run, in that order.
std::vector<Metric> LayerMetrics(Kind kind, const Phase& untraced,
                                 const Phase& traced, const TraceWindow& w,
                                 const std::vector<ProbeRow>& probe) {
  LayerLedger L;
  for (const ClientOut& o : traced.outs) L.Merge(o.ledger);
  const ServiceMetrics& m0 = w.m0;
  const ServiceMetrics& m1 = w.m1;
  const double R = static_cast<double>(L.reads);
  auto per_read_ms = [&](OpKind k) {
    return SafeDiv(static_cast<double>(OpDelta(m0, m1, k).ns) / 1e6, R);
  };
  double op_ms_all = 0;
  uint64_t folds = 0;
  for (size_t k = 0; k < kNumOpKinds; ++k) {
    OpCounterSnapshot d = OpDelta(m0, m1, static_cast<OpKind>(k));
    op_ms_all += static_cast<double>(d.ns) / 1e6;
    folds += d.hom_folds;
  }
  OpCounterSnapshot sel = OpDelta(m0, m1, OpKind::kSelect);
  OpCounterSnapshot enc = OpDelta(m0, m1, OpKind::kEncrypt);
  uint64_t hits = m1.cache_hits - m0.cache_hits;
  uint64_t lookups = hits + (m1.cache_misses - m0.cache_misses);
  uint64_t leads = m1.scan_leads - m0.scan_leads;
  uint64_t attaches = m1.scan_attaches - m0.scan_attaches;

  // Share of end-to-end latency no layer timing covers. QueryStats splits
  // each read's service time into plan, exec and service self time, and the
  // time before it is queue wait. Inside plan, a miss is covered as far as
  // the timed module calls explain it (L.unattributed_ms); inside exec, as
  // far as operator time does. Operators of one read can run in parallel,
  // so their summed time is capped at the exec wall time. A traced write is
  // its bind and commit calls, so writes are covered whole.
  double uncovered_exec = L.exec_ms - std::min(L.exec_ms, op_ms_all);
  double unattributed = L.unattributed_ms + uncovered_exec;

  double untraced_p50 = SummarizeReads(untraced).p50;
  double traced_p50 = SummarizeReads(traced).p50;

  std::vector<Metric> m;
  auto add = [&](const char* name, double v, const char* unit) {
    m.push_back({name, v, unit});
  };
  add("sql.parse_us", SafeDiv(L.parse_ms * 1e3, R), "us");
  add("sql.bind_us", SafeDiv(L.bind_ms * 1e3, R), "us");
  add("profile.annotate_us", SafeDiv(L.annotate_ms * 1e3, R), "us");
  add("candidates.compute_us", SafeDiv(L.candidates_ms * 1e3, R), "us");
  add("candidates.per_node",
      SafeDivU(L.candidate_subjects, L.candidate_nodes), "count");
  add("assign.optimize_us", SafeDiv(L.optimize_ms * 1e3, R), "us");
  add("extend.verify_us", SafeDiv(L.verify_ms * 1e3, R), "us");
  add("extend.plan_keys_us", SafeDiv(L.plan_keys_ms * 1e3, R), "us");
  add("extend.key_groups", SafeDivU(L.key_groups, L.shadow_plans), "count");
  add("crypto.keygen_ms", SafeDiv(L.keygen_ms, R), "ms");
  add("crypto.encrypt_ms", per_read_ms(OpKind::kEncrypt), "ms");
  add("crypto.decrypt_ms", per_read_ms(OpKind::kDecrypt), "ms");
  add("crypto.encrypt_rows", SafeDiv(static_cast<double>(enc.rows_in), R),
      "count");
  add("crypto.hom_folds", SafeDiv(static_cast<double>(folds), R), "count");
  add("exec.run_ms", SafeDiv(L.exec_ms, R), "ms");
  add("exec.select_ms", per_read_ms(OpKind::kSelect), "ms");
  add("exec.join_ms", per_read_ms(OpKind::kJoin), "ms");
  add("exec.groupby_ms", per_read_ms(OpKind::kGroupBy), "ms");
  add("exec.select_out_frac", SafeDivU(sel.rows_out, sel.rows_in), "ratio");
  add("exec.morsels",
      SafeDiv(static_cast<double>(m1.morsels_executed - m0.morsels_executed),
              R),
      "count");
  add("exec.scan_attach_frac", SafeDivU(attaches, leads + attaches), "ratio");
  add("exec.write_commit_us",
      SafeDiv(L.write_commit_ms * 1e3, static_cast<double>(L.writes)), "us");
  add("exec.snapshots_published",
      SafeDivU(w.epoch1 - w.epoch0, L.reads + L.writes), "count");
  add("net.transfer_kb",
      SafeDiv(static_cast<double>(L.transfer_bytes), R) / 1024.0, "KiB");
  add("net.messages", SafeDiv(static_cast<double>(L.messages), R), "count");
  add("net.virtual_ms", SafeDiv(L.net_virtual_ms, R), "ms");
  add("service.cache_hit_rate", SafeDivU(hits, lookups), "ratio");
  add("service.cache_probe_us",
      SafeDiv(L.plan_hit_ms * 1e3, static_cast<double>(L.hits)), "us");
  add("service.plan_build_ms",
      SafeDiv(L.plan_miss_ms, static_cast<double>(L.misses)), "ms");
  add("service.overhead_us",
      SafeDiv((L.total_ms - L.plan_hit_ms - L.plan_miss_ms - L.exec_ms) * 1e3,
              R),
      "us");
  add("service.queue_wait_ms", SafeDiv(L.queue_wait_ms, R), "ms");
  add("service.admission_waits",
      static_cast<double>(m1.admission_waits - m0.admission_waits), "count");
  add("service.sheds", static_cast<double>(m1.sheds - m0.sheds), "count");
  add("service.queue_depth_peak", static_cast<double>(m1.queue_depth_peak),
      "count");
  add("bench.gen_late_ms",
      kind == Kind::kAsyncOpen
          ? SafeDiv(L.gen_late_ms, static_cast<double>(L.submitted))
          : 0,
      "ms");
  add("bench.unattributed_frac", SafeDiv(unattributed, L.e2e_ms), "ratio");
  add("obs.trace_overhead_frac",
      untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1 : 0, "ratio");
  // Delivered speedup of nproc spinning workers over one, for a short and
  // a long region (host.* are run metadata, not program layers).
  for (const ProbeRow& r : probe) {
    if (r.workers != probe.back().workers) continue;
    add(r.region_ms < 100 ? "host.speedup_short" : "host.speedup_long",
        r.speedup, "ratio");
  }
  return m;
}

/// Appends "name value unit" lines for every end-to-end metric LEDGER.md
/// lists, "n/a" where the workload has no such operation.
void ReportEndToEnd(Kind kind, const ReadSummary& rs,
                    const std::vector<double>& write_ms, double setup_s,
                    double failed_frac, double max_rate, double peak_rss,
                    std::vector<std::string>* report) {
  char line[160];
  auto put = [&](const char* name, double v, const char* unit,
                 bool applies = true, const std::string& note = "") {
    if (applies) {
      std::snprintf(line, sizeof(line), "  %-24s %.6g %s%s", name, v, unit,
                    note.c_str());
    } else {
      std::snprintf(line, sizeof(line), "  %-24s n/a", name);
    }
    report->push_back(line);
  };
  auto rank_note = [](double rank) {
    char b[32];
    std::snprintf(b, sizeof(b), " (p%g)", rank * 100);
    return std::string(b);
  };
  std::vector<double> w = write_ms;
  std::sort(w.begin(), w.end());
  double wrank = TailRank(w.size());
  put("setup_s", setup_s, "s");
  put("throughput_qps", rs.rate, "1/s");
  put("read_p50_ms", rs.p50, "ms");
  put("read_tail_ms", rs.tail, "ms", true, rank_note(rs.rank));
  put("write_p50_ms", Percentile(w, 0.5), "ms", !w.empty());
  put("write_tail_ms", Percentile(w, wrank), "ms", !w.empty(),
      rank_note(wrank));
  put("failed_frac", failed_frac, "ratio");
  put("max_rate_qps", max_rate, "1/s", kind == Kind::kAsyncOpen,
      kind == Kind::kAsyncOpen ? Fmt(" (limit %.0f ms)", kLatencyLimitMs)
                               : "");
  put("transfer_kb_per_query", SafeDiv(rs.transfer_bytes, rs.all_reads) / 1024,
      "KiB");
  put("plan_cost_usd_per_query", SafeDiv(rs.cost_usd, rs.all_reads), "usd");
  put("peak_rss_mb", peak_rss, "MiB");
}

/// Checks every response of `phases` against its reference. Returns the
/// mismatch count.
uint64_t Verify(const Fixture& f, const std::vector<Phase>& phases,
                std::vector<std::string>* report) {
  std::string err;
  uint64_t bad = 0;
  if (f.kind == Kind::kWriteChurn) {
    // One serial replay over every phase's writes.
    std::vector<const ClientOut*> all;
    for (const Phase& p : phases) {
      for (const ClientOut& o : p.outs) all.push_back(&o);
    }
    // Each part replays every write on its own store, so the parts share
    // nothing and run on all cores.
    const size_t parts = std::max(1u, std::thread::hardware_concurrency());
    std::vector<uint64_t> part_bad(parts, 0);
    std::vector<std::string> part_err(parts);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < parts; ++i) {
      threads.emplace_back([&, i] {
        part_bad[i] = VerifyChurnPart(f, all, i, parts, &part_err[i]);
      });
    }
    for (auto& t : threads) t.join();
    for (size_t i = 0; i < parts; ++i) {
      bad += part_bad[i];
      if (err.empty()) err = part_err[i];
    }
  } else {
    for (const Phase& p : phases) {
      bad += f.kind == Kind::kColdAdhoc ? VerifyCold(f, p.outs, &err)
                                        : VerifyMix(f, p.outs, &err);
    }
  }
  if (!err.empty()) report->push_back("verify: " + err);
  return bad;
}

}  // namespace

bool RunWorkload(const Options& opt, RunResult* out, std::string* error) {
  bool known = false;
  Kind kind = ParseKind(opt.workload, &known);
  if (!known) {
    *error = "unknown workload: " + opt.workload;
    return false;
  }
  Clock::time_point epoch = Clock::now();
  auto& report = out->report;
  char line[512];

  std::vector<ProbeRow> probe;
  if (opt.trace) {
    probe = ProbeHostParallelism(
        std::max(1u, std::thread::hardware_concurrency()));
    for (const ProbeRow& r : probe) {
      std::snprintf(line, sizeof(line),
                    "run_meta host_parallelism: workers=%u region=%.0fms "
                    "wall=%.2fms speedup=%.2f",
                    r.workers, r.region_ms, r.wall_ms, r.speedup);
      report.push_back(line);
    }
  }

  // One round of timed set-ups; the last instance is left in `f`. The
  // traced run sets up once.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> f;
  auto setup_round = [&]() {
    double spent = 0;
    for (size_t n = 0; n < (opt.trace ? 1 : kMaxSetupReps); ++n) {
      if (n >= kMinSetupReps && spent >= kMinSetupSeconds) break;
      f.reset();
      auto t0 = Clock::now();
      f = Setup(kind, opt.seed, error);
      if (f == nullptr) return false;
      setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
      spent += setup_s.back();
    }
    return true;
  };
  if (!setup_round()) return false;

  std::vector<Phase> phases;
  TraceWindow window;
  if (opt.trace) {
    phases.push_back(RunPhase(*f, opt.seed, opt.seconds / 2, false, epoch));
    if (!phases.back().stalled) {
      window.m0 = f->service->Metrics();
      window.epoch0 = f->store != nullptr ? f->store->snapshot_epoch() : 0;
      phases.push_back(RunPhase(*f, opt.seed ^ 0x7ace, opt.seconds / 2, true,
                                epoch));
      window.m1 = f->service->Metrics();
      window.epoch1 = f->store != nullptr ? f->store->snapshot_epoch() : 0;
    }
  } else {
    phases.push_back(RunPhase(*f, opt.seed, opt.seconds, false, epoch));
  }
  const double peak_rss = PeakRssMb();

  // Correctness gate, outside the timed phase.
  out->mismatches = Verify(*f, phases, &report);
  const size_t max_in_flight = f->service->config().max_in_flight;
  if (phases.front().stalled || phases.back().stalled) {
    // Stalled pool workers still reference the service: it cannot be
    // destroyed. The process exits without running its destructor.
    out->wedged = true;
    f.release();
  } else if (!opt.trace) {
    f.reset();
    if (!setup_round()) return false;
    f.reset();
  }

  uint64_t errors = 0, sheds = 0, stalled = 0, attempted = 0;
  std::vector<double> write_ms;
  for (const Phase& p : phases) {
    for (const StepOut& s : p.steps) stalled += s.stalled;
    for (const ClientOut& o : p.outs) {
      errors += o.read_errors + o.write_errors;
      sheds += o.sheds;
      attempted += o.read_ms.size() + o.read_errors + o.write_ms.size() +
                   o.write_errors + o.sheds;
      if (!o.first_error.empty()) report.push_back("error: " + o.first_error);
    }
  }
  for (const ClientOut& o : phases[0].outs) {
    write_ms.insert(write_ms.end(), o.write_ms.begin(), o.write_ms.end());
  }
  // Requests still pending in a stalled backlog were offered (and counted
  // in `pending`, not in any client total) but never completed.
  attempted += stalled;
  out->attempted = std::max<uint64_t>(1, attempted);
  out->failed = errors + sheds + stalled;
  out->correct = out->mismatches == 0;

  const Phase& timed = phases[0];
  ReadSummary rs = SummarizeReads(timed);
  const double failed_frac = SafeDivU(out->failed, out->attempted);
  std::snprintf(line, sizeof(line),
                "workload %s seed %llu: %zu reads, %zu writes in %.2f s, "
                "%llu failed of %llu attempted, %llu mismatches",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                rs.reads, write_ms.size(), timed.wall_s,
                static_cast<unsigned long long>(out->failed),
                static_cast<unsigned long long>(out->attempted),
                static_cast<unsigned long long>(out->mismatches));
  report.push_back(line);

  double max_rate = 0;
  for (const StepOut& s : timed.steps) {
    if (s.rate == 0) continue;  // not reached: an earlier step stalled
    double rank = 0;
    double tail = StepTail(s, &rank);
    bool meets = tail <= kLatencyLimitMs && s.drain_ms <= kLatencyLimitMs &&
                 s.stalled == 0;
    if (meets) max_rate = std::max(max_rate, s.rate);
    std::vector<double> v = s.latency_ms;
    std::sort(v.begin(), v.end());
    std::snprintf(line, sizeof(line),
                  "step %.0f req/s (max_in_flight %zu, queue cap %zu): offered "
                  "%zu completed %zu shed %zu errors %zu stalled %zu, p50 "
                  "%.4f ms tail(p%g) %.4f ms, gen_late_max %.3f ms, backlog "
                  "at last arrival %zu, drain %.3f ms%s",
                  s.rate, max_in_flight, 2 * max_in_flight, s.offered,
                  s.completed, s.sheds, s.errors, s.stalled,
                  Percentile(v, 0.5), rank * 100, tail, s.gen_late_ms_max,
                  s.backlog_at_last_arrival, s.drain_ms,
                  meets ? "" : " [misses limit]");
    report.push_back(line);
  }
  for (size_t q = 0; q < Mix().size(); ++q) {
    std::vector<double> v;
    for (const ClientOut& o : timed.outs) {
      for (size_t i = 0; i < o.reads.size(); ++i) {
        if (o.reads[i].stmt == q) v.push_back(o.read_ms[i]);
      }
    }
    std::sort(v.begin(), v.end());
    std::snprintf(line, sizeof(line), "statement %zu: %zu reads, p50 %.4f ms",
                  q, v.size(), Percentile(v, 0.5));
    report.push_back(line);
  }
  {
    std::vector<int> per_s(static_cast<size_t>(std::ceil(timed.wall_s)), 0);
    for (const ClientOut& o : timed.outs) {
      for (Clock::time_point t : o.read_done) {
        size_t i = static_cast<size_t>(MsBetween(timed.t0, t) / 1e3);
        if (i < per_s.size()) per_s[i]++;
      }
    }
    std::string counts = "reads per second:";
    for (int c : per_s) counts += " " + std::to_string(c);
    report.push_back(counts);
  }
  report.push_back("end-to-end (untraced):");
  ReportEndToEnd(kind, rs, write_ms, Median(setup_s), failed_frac, max_rate,
                 peak_rss, &report);

  if (opt.trace) {
    SpanLog spans(epoch);
    for (const ClientOut& o : phases.back().outs) spans.Append(o.spans);
    std::string span_path = ".bench_build/perfbench/spans-" + opt.workload +
                            "-" + std::to_string(opt.seed) + ".jsonl";
    if (spans.WriteJsonLines(span_path)) {
      std::snprintf(line, sizeof(line), "spans: %zu written to %s",
                    spans.size(), span_path.c_str());
      report.push_back(line);
    } else {
      report.push_back("spans: could not write " + span_path);
    }
    out->metrics = LayerMetrics(kind, phases.front(), phases.back(), window,
                                probe);
  } else {
    auto add = [&](const char* name, double v, const char* unit) {
      out->metrics.push_back({name, v, unit});
    };
    add("setup_s", Median(setup_s), "s");
    add("throughput_qps", rs.rate, "1/s");
    add("read_p50_ms", rs.p50, "ms");
    add("transfer_kb_per_query",
        SafeDiv(rs.transfer_bytes, rs.all_reads) / 1024.0, "KiB");
    add("plan_cost_usd_per_query", SafeDiv(rs.cost_usd, rs.all_reads), "usd");
    add("peak_rss_mb", peak_rss, "MiB");
  }
  return true;
}

}  // namespace perfbench
