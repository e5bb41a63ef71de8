// QueryService serving benchmark over one TPC-H UAPenc mix:
//
//   closed_loop — N clients, cold vs warm plan-cache latency; raw
//                 percentiles plus coordinated-omission-corrected ones.
//
// The exit gate is the plan-cache speedup floor (warm p50 at least 5x
// faster than cold) on rows this host can run in parallel; timings are
// otherwise informational. Overload shedding and failover under load are
// gated by tests/service_load_test.cc on the real ExecuteAsync path.
// Emits BENCH_service.json (override with --json <path>).
//
//   bench_service [data_sf] [warm_iters] [--json path]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "service/query_service.h"
#include "tpch/dbgen.h"
#include "tpch/scenarios.h"

using namespace mpq;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double PercentileMs(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double rank = p * static_cast<double>(samples.size());
  size_t idx = rank <= 1 ? 0 : static_cast<size_t>(rank + 0.5) - 1;
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

// Coordinated-omission correction (HdrHistogram style): a closed-loop client
// that intended to issue every `interval_ms` but observed latency L > interval
// silently omitted the samples it would have taken while stalled; re-insert
// them as L - interval, L - 2*interval, ... so percentiles reflect what an
// arrival during the stall would have experienced.
std::vector<double> CorrectCoordinatedOmission(const std::vector<double>& raw,
                                               double interval_ms) {
  std::vector<double> corrected = raw;
  if (interval_ms <= 0) return corrected;
  for (double l : raw) {
    for (double missed = l - interval_ms; missed > 0; missed -= interval_ms) {
      corrected.push_back(missed);
    }
  }
  return corrected;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      mpq::bench::ParseJsonFlag(&argc, argv, "BENCH_service.json");
  // Default scale keeps the per-query working set small relative to the
  // front half (parse → authorize → optimize): the regime where a serving
  // layer's plan cache is the dominant lever. Execution-side data scaling
  // is bench_parallel_exec's subject.
  double data_sf = argc > 1 ? std::atof(argv[1]) : 5e-5;
  int warm_iters = argc > 2 ? std::atoi(argv[2]) : 20;
  if (data_sf <= 0) data_sf = 5e-5;
  if (warm_iters < 1) warm_iters = 1;

  TpchEnv env = MakeTpchEnv(/*costing_sf=*/1.0, /*num_providers=*/8);
  TpchData db = GenerateTpch(env, data_sf, /*seed=*/17);
  Result<Policy> policy = MakeScenarioPolicy(env, AuthScenario::kUAPenc);
  if (!policy.ok()) {
    std::printf("policy error: %s\n", policy.status().ToString().c_str());
    return 1;
  }
  PricingTable prices = MakeScenarioPricing(env);
  Topology topo = MakeScenarioTopology(env);

  const std::vector<std::string>& statements = ServingMixSql();

  std::printf(
      "QueryService serving bench: TPC-H UAPenc mix {Q6,Q3,Q10,Q12,Q18}, "
      "data_sf=%.4g (lineitem rows: %zu), %d warm iters/client\n",
      data_sf, db.at(env.lineitem).num_rows(), warm_iters);

  JsonWriter w;
  w.BeginObject()
      .Key("bench")
      .String("service")
      .Key("scenario")
      .String("UAPenc")
      .Key("data_sf")
      .Double(data_sf)
      .Key("warm_iters")
      .Int(warm_iters);
  mpq::bench::WriteRunMeta(&w);
  w.Key("query_mix").BeginArray();
  for (const char* q : {"Q6", "Q3", "Q10", "Q12", "Q18"}) w.String(q);
  w.EndArray();

  bool ok = true;

  // ---------------------------------------------------------------- section
  // Closed loop: N clients hammering the cached mix. Raw percentiles are
  // coordinated-omission biased (a slow response delays that client's next
  // request), so we also report corrected ones assuming each client intended
  // a steady interval equal to its mean observed latency.
  std::printf("\n[closed_loop]\n");
  std::printf("%8s %12s %12s %12s %12s %14s %10s %8s\n", "clients", "cold_p50",
              "warm_p50", "warm_p99", "co_p99", "cold/warm", "hit_rate",
              "qps");
  w.Key("closed_loop_note")
      .String(
          "raw percentiles understate tail latency under overload "
          "(coordinated omission: a stalled client stops sampling); "
          "corrected_* re-inserts the omitted samples assuming each client "
          "intended a steady interval equal to its mean observed latency");
  w.Key("closed_loop").BeginArray();
  for (size_t clients : {1u, 4u, 8u}) {
    ServiceConfig config;
    // Inline execution: closed-loop throughput comes from inter-query
    // parallelism across client threads; a shared exec pool (the async
    // path's subject) would only make the clients convoy on pool workers
    // here.
    config.exec_threads = 0;
    config.max_in_flight = 2 * clients;
    QueryService service(&env.catalog, &env.subjects, &*policy, &prices,
                         &topo, config);
    for (const auto& [rel, t] : db.tables) service.LoadTable(rel, &t);

    auto session = service.OpenSession(env.user);
    if (!session.ok()) {
      std::printf("session error: %s\n", session.status().ToString().c_str());
      return 1;
    }

    // Cold: every statement's first execution pays the whole front half.
    std::vector<double> cold_ms;
    for (const std::string& sql : statements) {
      auto t0 = Clock::now();
      auto r = service.ExecuteSql(sql, *session);
      if (!r.ok()) {
        std::printf("cold error: %s\n", r.status().ToString().c_str());
        return 1;
      }
      cold_ms.push_back(MsSince(t0));
    }

    // Warm: closed-loop clients hammering the cached mix.
    std::mutex merge_mu;
    std::vector<double> warm_ms;
    std::vector<std::thread> threads;
    bool failed = false;
    auto wall0 = Clock::now();
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        auto my_session = service.OpenSession(env.user);
        if (!my_session.ok()) return;
        std::vector<double> local;
        local.reserve(statements.size() * static_cast<size_t>(warm_iters));
        for (int i = 0; i < warm_iters; ++i) {
          for (size_t s = 0; s < statements.size(); ++s) {
            // Stagger start points so clients don't convoy on one statement.
            const std::string& sql = statements[(s + c) % statements.size()];
            auto t0 = Clock::now();
            auto r = service.ExecuteSql(sql, *my_session);
            if (!r.ok()) {
              std::lock_guard<std::mutex> lock(merge_mu);
              failed = true;
              return;
            }
            local.push_back(MsSince(t0));
          }
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        warm_ms.insert(warm_ms.end(), local.begin(), local.end());
      });
    }
    for (auto& t : threads) t.join();
    double wall_s = MsSince(wall0) / 1e3;
    if (failed) {
      std::printf("warm execution failed at %zu clients\n", clients);
      return 1;
    }

    double mean_ms = 0;
    for (double l : warm_ms) mean_ms += l;
    mean_ms =
        warm_ms.empty() ? 0 : mean_ms / static_cast<double>(warm_ms.size());
    std::vector<double> co_ms = CorrectCoordinatedOmission(warm_ms, mean_ms);

    ServiceMetrics m = service.Metrics();
    bool oversub = mpq::bench::Oversubscribed(clients);
    double cold_p50 = PercentileMs(cold_ms, 0.50);
    double warm_p50 = PercentileMs(warm_ms, 0.50);
    double warm_p99 = PercentileMs(warm_ms, 0.99);
    double co_p99 = PercentileMs(co_ms, 0.99);
    double speedup = warm_p50 > 0 ? cold_p50 / warm_p50 : 0;
    double qps = wall_s > 0 ? static_cast<double>(warm_ms.size()) / wall_s : 0;
    // The plan-cache floor gates only rows this machine can actually run in
    // parallel; oversubscribed rows measure scheduler churn, not caching.
    if (!oversub) ok = ok && speedup >= 5.0;

    std::printf("%8zu %10.3fms %10.3fms %10.3fms %10.3fms %13.1fx %9.1f%% "
                "%8.0f%s\n",
                clients, cold_p50, warm_p50, warm_p99, co_p99, speedup,
                m.hit_rate * 100, qps, oversub ? "  (oversubscribed)" : "");

    w.BeginObject()
        .Key("clients")
        .UInt(clients)
        .Key("oversubscribed")
        .Bool(oversub)
        .Key("cold_p50_ms")
        .Double(cold_p50)
        .Key("cold_p95_ms")
        .Double(PercentileMs(cold_ms, 0.95))
        .Key("warm_p50_ms")
        .Double(warm_p50)
        .Key("warm_p95_ms")
        .Double(PercentileMs(warm_ms, 0.95))
        .Key("warm_p99_ms")
        .Double(warm_p99)
        .Key("corrected_p50_ms")
        .Double(PercentileMs(co_ms, 0.50))
        .Key("corrected_p99_ms")
        .Double(co_p99)
        .Key("corrected_p999_ms")
        .Double(PercentileMs(co_ms, 0.999))
        .Key("intended_interval_ms")
        .Double(mean_ms)
        .Key("cold_over_warm_p50")
        .Double(speedup)
        .Key("hit_rate")
        .Double(m.hit_rate)
        .Key("qps")
        .Double(qps)
        .Key("queries")
        .UInt(m.queries)
        .Key("admission_waits")
        .UInt(m.admission_waits)
        .EndObject();
  }
  w.EndArray();

  w.Key("pass").Bool(ok);
  w.EndObject();

  mpq::bench::WriteJsonFile(json_path, w.TakeString());
  std::printf(
      "\ngate: plan-cache >= 5x on non-oversubscribed rows. JSON: %s%s\n",
      json_path.c_str(), ok ? "" : "  [GATE FAILED]");
  return ok ? 0 : 1;
}
