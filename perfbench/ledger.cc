#include "ledger.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <thread>

#include <sys/resource.h>

#include "common/flat_hash.h"
#include "common/rng.h"

namespace perfbench {

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  double rank = std::ceil(p * static_cast<double>(sorted.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double TailRank(size_t n) {
  double best = 0.5;
  for (double p : {0.9, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(n) * (1 - p) >= 10 - 1e-9) best = p;
  }
  return best;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

namespace {

uint64_t CellHash(const mpq::Cell& cell) {
  if (!cell.is_plain()) return mpq::HashBytes(cell.ToString()) ^ 0xe11;
  const mpq::Value& v = cell.plain();
  if (v.is_null()) return 0x6e756c6cull;
  if (v.is_int()) {
    return mpq::SplitMix64(static_cast<uint64_t>(v.AsInt()) ^ 0x1);
  }
  if (v.is_double()) {
    double d = v.AsDouble();
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return mpq::SplitMix64(bits ^ 0x2);
  }
  return mpq::HashBytes(v.AsString()) ^ 0x3;
}

}  // namespace

uint64_t TableDigest(const mpq::Table& t) {
  std::vector<size_t> order(t.num_columns());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return t.columns()[a].attr < t.columns()[b].attr;
  });
  uint64_t header = 0x5eed;
  for (size_t c : order) {
    header = mpq::SplitMix64(header ^ static_cast<uint64_t>(t.columns()[c].attr));
  }
  uint64_t sum = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    uint64_t h = 0x726f77;
    for (size_t c : order) h = mpq::SplitMix64(h ^ CellHash(t.at(r, c)));
    sum += h;
  }
  return mpq::SplitMix64(header ^ sum ^
                         mpq::SplitMix64(static_cast<uint64_t>(t.num_rows())));
}

int SpanLog::Add(const char* name, uint64_t request, int parent,
                 Clock::time_point a, Clock::time_point b) {
  SpanRecord s;
  s.name = name;
  s.request = request;
  s.id = next_id_++;
  s.parent = parent;
  s.start_us = MsBetween(epoch_, a) * 1e3;
  s.end_us = MsBetween(epoch_, b) * 1e3;
  spans_.push_back(s);
  return s.id;
}

int SpanLog::AddDuration(const char* name, uint64_t request, int parent,
                         Clock::time_point a, double dur_ms) {
  auto b = a + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(dur_ms));
  return Add(name, request, parent, a, b);
}

void SpanLog::Append(const SpanLog& other) {
  // Span ids are per log; parents refer within the same log, so offset them.
  int base = next_id_;
  for (SpanRecord s : other.spans_) {
    s.id += base;
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
  next_id_ += other.next_id_;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"request\":%" PRIu64
                 ",\"id\":%d,\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 s.name, s.request, s.id, s.parent, s.start_us, s.end_us);
  }
  return std::fclose(f) == 0;
}

void LayerLedger::Merge(const LayerLedger& o) {
  parse_ms += o.parse_ms;
  bind_ms += o.bind_ms;
  annotate_ms += o.annotate_ms;
  candidates_ms += o.candidates_ms;
  optimize_ms += o.optimize_ms;
  verify_ms += o.verify_ms;
  plan_keys_ms += o.plan_keys_ms;
  keygen_ms += o.keygen_ms;
  shadow_plans += o.shadow_plans;
  candidate_nodes += o.candidate_nodes;
  candidate_subjects += o.candidate_subjects;
  key_groups += o.key_groups;
  total_ms += o.total_ms;
  plan_hit_ms += o.plan_hit_ms;
  plan_miss_ms += o.plan_miss_ms;
  exec_ms += o.exec_ms;
  hits += o.hits;
  misses += o.misses;
  queue_wait_ms += o.queue_wait_ms;
  gen_late_ms += o.gen_late_ms;
  submitted += o.submitted;
  e2e_ms += o.e2e_ms;
  unattributed_ms += o.unattributed_ms;
  transfer_bytes += o.transfer_bytes;
  messages += o.messages;
  net_virtual_ms += o.net_virtual_ms;
  write_commit_ms += o.write_commit_ms;
  writes += o.writes;
  reads += o.reads;
}

namespace {

/// Spins `iters` steps of a dependent integer recurrence (not foldable).
uint64_t Spin(uint64_t iters, uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ull + i;
  return x;
}

double TimeRegion(unsigned workers, uint64_t total_iters) {
  std::vector<std::thread> threads;
  std::vector<uint64_t> sink(workers, 0);
  auto t0 = Clock::now();
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&sink, w, workers, total_iters] {
      sink[w] = Spin(total_iters / workers, w + 1);
    });
  }
  for (auto& t : threads) t.join();
  double ms = MsBetween(t0, Clock::now());
  uint64_t acc = 0;
  for (uint64_t s : sink) acc ^= s;
  if (acc == 42) std::fprintf(stderr, " ");  // keeps the spin observable
  return ms;
}

}  // namespace

std::vector<ProbeRow> ProbeHostParallelism(unsigned max_workers) {
  // Calibrate single-thread iterations per millisecond.
  uint64_t calib = 2'000'000;
  double calib_ms = TimeRegion(1, calib);
  for (int i = 0; i < 2; ++i) calib_ms = std::min(calib_ms, TimeRegion(1, calib));
  double iters_per_ms = static_cast<double>(calib) / std::max(calib_ms, 1e-3);

  std::vector<ProbeRow> rows;
  for (double region_ms : {30.0, 1000.0}) {
    uint64_t iters = static_cast<uint64_t>(iters_per_ms * region_ms);
    int reps = region_ms < 100 ? 5 : 1;
    double one = 0;
    for (unsigned w = 1; w <= max_workers; ++w) {
      std::vector<double> walls;
      for (int r = 0; r < reps; ++r) walls.push_back(TimeRegion(w, iters));
      double wall = Median(walls);
      if (w == 1) one = wall;
      rows.push_back({w, region_ms, wall, wall > 0 ? one / wall : 0});
    }
  }
  return rows;
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
