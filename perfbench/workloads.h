// The benchmark's four workloads, each driven from one process through
// QueryService's public API (Execute / ExecuteSql, ExecuteAsync,
// ExecuteWrite):
//
//   cold_adhoc  — UAPenc, tiny data, two closed-loop clients, inline
//                 execution; every request is a fresh seeded constant draw
//                 of the TPC-H statement templates, so every request misses
//                 the plan cache and pays planning plus key generation.
//   warm_enc    — UAPenc, sf 0.01, the five-statement mix warmed into the
//                 cache; two closed-loop clients over a 2-worker pool and a
//                 fault-free SimNet. Execution does the work; encrypt is
//                 its largest operator.
//   write_churn — UA (plaintext), sf 0.01 in a TableStore; two closed-loop
//                 clients over a 2-worker pool do three mix reads per
//                 write (insert/delete pairs and updates on orders). Every
//                 write retires every cached plan, so reads replan without
//                 key generation.
//   async_open  — UAPenc, tiny data, cached mix; one generator thread calls
//                 ExecuteAsync on a seeded lognormal schedule at fixed rate
//                 steps over a 3-worker pool with max_in_flight 3. The only
//                 workload where requests queue. It sheds and stalls, so it
//                 is kept out of BENCHMARK.json (see LEDGER.md).
//
// Each workload's timed phase uses at most four threads in total (clients,
// pool workers and generator). Every response is checked against a
// reference computed outside the timed phase.

#ifndef MPQ_PERFBENCH_WORKLOADS_H_
#define MPQ_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< Errors plus sheds.
  uint64_t mismatches = 0;  ///< Responses differing from their reference.
  /// The metrics the run reports: end-to-end ones untraced, per-layer ones
  /// traced.
  std::vector<Metric> metrics;
  /// Human-readable report lines (printed before the JSON result).
  std::vector<std::string> report;
  /// The service stalled with queries in flight (async_open): it was left
  /// undestroyed and the process must exit without running destructors.
  bool wedged = false;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Returns false (with `error` set) when the workload
/// could not be set up or run at all.
bool RunWorkload(const Options& opt, RunResult* out, std::string* error);

}  // namespace perfbench

#endif  // MPQ_PERFBENCH_WORKLOADS_H_
