// Measurement helpers of the repository benchmark: latency percentiles,
// order-insensitive result digests, the in-memory span log of the traced
// run, the per-layer time ledger, and the host-parallelism probe.

#ifndef MPQ_PERFBENCH_LEDGER_H_
#define MPQ_PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/table.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile of `sorted` (ascending), p in [0, 1].
double Percentile(const std::vector<double>& sorted, double p);

/// The highest of p90 / p99 / p99.9 / p99.99 that leaves at least ten
/// samples beyond it in a sample of `n`; 0.5 when n < 20.
double TailRank(size_t n);

/// Median of `v` (by value; 0 when empty).
double Median(std::vector<double> v);

/// Order-insensitive 64-bit digest over every cell of `t`: columns are
/// taken in attribute-id order, each cell contributes its exact value (the
/// bit pattern of doubles), and row hashes are summed so physical row order
/// does not matter. Two tables with the same multiset of rows over the same
/// attributes digest equal. This is the canonical form of
/// testing::CanonicalRows, hashed so that a response can be checked without
/// keeping its rows.
uint64_t TableDigest(const mpq::Table& t);

/// One recorded span: a named interval of one request.
struct SpanRecord {
  const char* name = "";
  uint64_t request = 0;
  int id = 0;
  int parent = -1;  ///< Span id within the same request; -1 for the root.
  double start_us = 0;
  double end_us = 0;
};

/// Per-thread span buffer; merged and written once at exit.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  /// Records [a, b] under `parent` for `request`; returns the span id.
  int Add(const char* name, uint64_t request, int parent,
          Clock::time_point a, Clock::time_point b);
  /// Records a span of known duration starting at `a`.
  int AddDuration(const char* name, uint64_t request, int parent,
                  Clock::time_point a, double dur_ms);

  void Append(const SpanLog& other);
  size_t size() const { return spans_.size(); }

  /// Writes one JSON object per line; returns false when the file cannot be
  /// written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  int next_id_ = 0;
};

/// Sums of layer times (ms) and counts gathered by the traced run. All
/// fields add; Merge combines per-thread ledgers.
struct LayerLedger {
  // Front half, timed by calling the planning modules (misses only).
  double parse_ms = 0, bind_ms = 0, annotate_ms = 0, candidates_ms = 0;
  double optimize_ms = 0, verify_ms = 0, plan_keys_ms = 0, keygen_ms = 0;
  uint64_t shadow_plans = 0;
  uint64_t candidate_nodes = 0, candidate_subjects = 0, key_groups = 0;
  // Service-reported splits (QueryStats).
  double total_ms = 0, plan_hit_ms = 0, plan_miss_ms = 0, exec_ms = 0;
  uint64_t hits = 0, misses = 0;
  double queue_wait_ms = 0;   ///< Due-time (or call) latency minus total_s.
  double gen_late_ms = 0;     ///< Async only: submit time minus due time.
  uint64_t submitted = 0;     ///< Async only: submissions (incl. sheds).
  double e2e_ms = 0;          ///< Sum of end-to-end latencies.
  double unattributed_ms = 0;
  uint64_t transfer_bytes = 0, messages = 0;
  double net_virtual_ms = 0;
  // Writes, timed by calling the write path's modules.
  double write_commit_ms = 0;
  uint64_t writes = 0;
  uint64_t reads = 0;

  void Merge(const LayerLedger& o);
};

/// Delivered speedup of `workers` spinning threads over one thread for a
/// region of `region_ms` single-thread work.
struct ProbeRow {
  unsigned workers = 0;
  double region_ms = 0;
  double wall_ms = 0;
  double speedup = 0;
};

/// Runs 1..max_workers spinning workers over a short (~30 ms) and a long
/// (~1 s) region and records the speedup each delivers.
std::vector<ProbeRow> ProbeHostParallelism(unsigned max_workers);

/// Peak resident set size of this process in MiB, 0 if unknown.
double PeakRssMb();

}  // namespace perfbench

#endif  // MPQ_PERFBENCH_LEDGER_H_
