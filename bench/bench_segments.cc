// Storage-segment benchmarks: (1) compression ratio of the segment codec
// over the v2 column wire format, per TPC-H column, and the bytes per cell
// of each column's ciphertext page under every scheme it admits; (2) scan
// throughput
// with and without zone-map segment skipping on shipdate-clustered
// lineitem; (3) a budget-forced spill-to-disk join against the in-memory
// hash join, verified bit-identical; (4) bytes-on-wire of the distributed
// runtime's segment-encoded transfers over random authorized scenarios
// (dictionary-heavy string columns), verified against the row oracle.
//
// Emits BENCH_segments.json (override with --json <path>). The process
// exits nonzero unless every differential verifies, string/dict columns
// compress >= 2x, a single-key ciphertext page whose blobs share one length
// costs <= 1 B per cell beyond the blob, and the spill run recursed through
// >= 2 partition generations.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "algebra/plan_builder.h"
#include "bench_json.h"
#include "crypto/column_codec.h"
#include "crypto/keyring.h"
#include "exec/executor.h"
#include "exec/failover.h"
#include "exec/morsel.h"
#include "net/simnet.h"
#include "storage/segment.h"
#include "testing/random_plan.h"
#include "testing/reference_exec.h"
#include "tpch/dbgen.h"
#include "tpch/tpch_schema.h"

using namespace mpq;

namespace {

using Clock = std::chrono::steady_clock;

double BestOf(int reps, const std::function<double()>& run) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) best = std::min(best, run());
  return best;
}

/// Columns are labeled by how the codec sees them: low-cardinality strings
/// (repertoire under a quarter of the rows) dictionary-encode and carry the
/// compression floor; near-unique strings like p_name stay plain.
std::string TypeName(const Table& t, size_t c) {
  switch (t.columns()[c].type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    default: {
      std::set<std::string> distinct;
      for (size_t r = 0; r < t.num_rows(); ++r) {
        Cell cell = t.at(r, c);
        if (cell.is_plain() && cell.plain().is_string()) {
          distinct.insert(cell.plain().AsString());
        }
      }
      bool dict = t.num_rows() > 0 && distinct.size() * 4 <= t.num_rows();
      return dict ? "dict" : "string";
    }
  }
}

/// Rows of `t` reordered ascending by int64 column `col` (stable), so zone
/// maps over the sorted column become disjoint and a range scan can prune.
Table SortedBy(const Table& t, size_t col) {
  std::vector<size_t> order(t.num_rows());
  for (size_t r = 0; r < order.size(); ++r) order[r] = r;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return t.at(a, col).plain().AsInt() < t.at(b, col).plain().AsInt();
  });
  Table out(t.columns());
  out.ReserveRows(t.num_rows());
  for (size_t r : order) out.AppendRowFrom(t, r);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      bench::ParseJsonFlag(&argc, argv, "BENCH_segments.json");
  double data_sf = argc > 1 ? std::atof(argv[1]) : 0.02;
  int reps = argc > 2 ? std::atoi(argv[2]) : 3;
  if (data_sf <= 0) data_sf = 0.02;
  if (reps < 1) reps = 1;

  TpchEnv env = MakeTpchEnv(/*costing_sf=*/1.0, /*num_providers=*/3);
  TpchData db = GenerateTpch(env, data_sf, /*seed=*/5);
  std::printf(
      "Segment codec / zone maps / spill, TPC-H data_sf=%.4g "
      "(lineitem rows: %zu), best of %d reps\n\n",
      data_sf, db.at(env.lineitem).num_rows(), reps);

  bool ok = true;
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("segments");
  w.Key("data_sf").Double(data_sf);
  w.Key("lineitem_rows").UInt(db.at(env.lineitem).num_rows());
  bench::WriteRunMeta(&w);

  // ------------------------------------------------------ compression ---
  // Each TPC-H column as a single-column table: v2 wire bytes vs segment
  // bytes, decode verified bit-identical. The gate takes the *worst*
  // dict-encodable string column: dictionary + bit-packed codes must beat
  // the raw wire >= 2x.
  std::printf("%-18s %-7s %10s %10s %7s\n", "column", "type", "wire(B)",
              "seg(B)", "ratio");
  double min_string_ratio = 1e300;
  w.Key("compression").BeginArray();
  for (RelId rel : {env.lineitem, env.orders, env.part}) {
    const Table& t = db.at(rel);
    for (size_t c = 0; c < t.num_columns(); ++c) {
      Table one;
      one.AddColumn(t.columns()[c], t.ShareCol(c));
      std::string wire = one.SerializeColumns();
      Result<std::string> enc = EncodeSegment(one);
      if (!enc.ok()) {
        std::printf("%-18s encode error: %s\n", t.columns()[c].name.c_str(),
                    enc.status().ToString().c_str());
        ok = false;
        continue;
      }
      Result<SegmentReader> rd = SegmentReader::Open(*enc);
      Result<Table> back = rd.ok() ? rd->Decode() : rd.status();
      bool verified = back.ok() && back->SerializeColumns() == wire;
      ok = ok && verified;
      double ratio = static_cast<double>(wire.size()) /
                     static_cast<double>(enc->size());
      const ExecColumn& col = t.columns()[c];
      std::string type_name = TypeName(t, c);
      if (type_name == "dict") {
        min_string_ratio = std::min(min_string_ratio, ratio);
      }
      std::printf("%-18s %-7s %10zu %10zu %6.2fx%s\n", col.name.c_str(),
                  type_name.c_str(), wire.size(), enc->size(), ratio,
                  verified ? "" : "  DECODE MISMATCH");
      w.BeginObject();
      w.Key("column").String(col.name);
      w.Key("type").String(type_name);
      w.Key("wire_bytes").UInt(wire.size());
      w.Key("segment_bytes").UInt(enc->size());
      w.Key("ratio").Double(ratio);
      w.Key("verified").Bool(verified);
      w.EndObject();
    }
  }
  w.EndArray();
  w.Key("min_string_ratio").Double(min_string_ratio);
  bool compression_gate = min_string_ratio >= 2.0;
  ok = ok && compression_gate;
  std::printf("\nworst string/dict column ratio: %.2fx (floor 2.00x) %s\n\n",
              min_string_ratio, compression_gate ? "" : "FAIL");

  // Each TPC-H column encrypted under RND and DET, and OPE and HOM when
  // numeric (those two take numbers only), as one single-key ciphertext
  // page: page bytes per cell against blob bytes per cell, decode verified
  // bit-identical. The gate takes the worst column whose blobs share one
  // length: the page may cost at most 1 B per cell beyond the blob.
  std::printf("%-18s page bytes per cell (+ beyond the blob) by scheme\n",
              "column");
  KeyMaterial km = MakeKeyMaterial(/*seed=*/5, /*key_id=*/1);
  ColumnCodec codec(km);
  double max_uniform_overhead = 0;
  w.Key("ciphertext").BeginArray();
  for (RelId rel : {env.lineitem, env.orders, env.part}) {
    const Table& t = db.at(rel);
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const ColumnData& src = t.col(c);
      const bool numeric = t.columns()[c].type != DataType::kString;
      std::printf("%-18s", t.columns()[c].name.c_str());
      for (EncScheme scheme :
           {EncScheme::kRandom, EncScheme::kDeterministic, EncScheme::kOpe,
            EncScheme::kPaillier}) {
        const bool sym = scheme == EncScheme::kRandom ||
                         scheme == EncScheme::kDeterministic;
        if (!sym && !numeric) continue;
        ExecColumn col = t.columns()[c];
        col.encrypted = true;
        col.scheme = scheme;
        col.key_id = 1;
        Result<EncArena> arena = codec.SizeEncrypt(src, scheme);
        Status st = arena.ok() ? codec.EncryptSpan(src, 0, src.size(), scheme,
                                                   /*nonce_base=*/1, &*arena)
                               : arena.status();
        Result<std::string> enc = st;
        Table one;
        if (st.ok()) {
          ColumnData d;
          d.Adopt(std::move(*arena));
          one.AddColumn(col, std::move(d));
          enc = EncodeSegment(one);
        }
        Result<SegmentReader> rd =
            enc.ok() ? SegmentReader::Open(*enc) : enc.status();
        Result<Table> back = rd.ok() ? rd->Decode() : rd.status();
        if (!back.ok()) {
          std::printf(" %s error: %s", EncSchemeName(scheme),
                      back.status().ToString().c_str());
          ok = false;
          continue;
        }
        bool verified = back->SerializeColumns() == one.SerializeColumns();
        ok = ok && verified;
        const EncArena& a = one.col(0).enc();
        bool uniform = true;
        for (size_t r = 1; r < a.size(); ++r) {
          uniform = uniform && a.blob(r).size() == a.blob(0).size();
        }
        const auto rows = static_cast<double>(std::max<size_t>(a.size(), 1));
        const double per_cell = static_cast<double>(rd->page_bytes(0)) / rows;
        const double blob_per_cell = static_cast<double>(a.bytes()) / rows;
        const double overhead = per_cell - blob_per_cell;
        if (uniform) {
          max_uniform_overhead = std::max(max_uniform_overhead, overhead);
        }
        std::printf("  %s %.3f (+%.3f%s)%s", EncSchemeName(scheme), per_cell,
                    overhead, uniform ? "" : " varied",
                    verified ? "" : " DECODE MISMATCH");
        w.BeginObject();
        w.Key("column").String(col.name);
        w.Key("scheme").String(EncSchemeName(scheme));
        w.Key("page_bytes").UInt(rd->page_bytes(0));
        w.Key("bytes_per_cell").Double(per_cell);
        w.Key("blob_bytes_per_cell").Double(blob_per_cell);
        w.Key("uniform_lengths").Bool(uniform);
        w.Key("verified").Bool(verified);
        w.EndObject();
      }
      std::printf("\n");
    }
  }
  w.EndArray();
  w.Key("max_uniform_enc_overhead_bytes").Double(max_uniform_overhead);
  bool enc_gate = max_uniform_overhead <= 1.0;
  ok = ok && enc_gate;
  std::printf(
      "\nworst single-key uniform ciphertext page: %.3f B per cell beyond "
      "the blob (ceiling 1.000) %s\n\n",
      max_uniform_overhead, enc_gate ? "" : "FAIL");

  // --------------------------------------------------------- zone scan ---
  // lineitem clustered on l_shipdate, segmented at 4096 rows: a range scan
  // over the cluster key decodes only the qualifying segments. The full
  // scan runs the same plan over the same (sorted) rows held in memory.
  {
    const Table& li = db.at(env.lineitem);
    int date_col = li.ColIndex(env.catalog.attrs().Find("l_shipdate"));
    Table sorted = SortedBy(li, static_cast<size_t>(date_col));
    Result<SegmentedTable> seg = SegmentedTable::FromTable(sorted, 4096);
    int64_t lo = sorted.at(0, date_col).plain().AsInt();
    int64_t hi = sorted.at(sorted.num_rows() - 1, date_col).plain().AsInt();
    int64_t cutoff = lo + (hi - lo) / 8;  // ~12% of the clustered range

    PlanBuilder b(&env.catalog);
    PlanPtr p = Select(b.Rel("lineitem"),
                       {b.Pv("l_shipdate", CmpOp::kLt, Value(cutoff))});
    Result<PlanPtr> fp = FinishPlan(std::move(p), env.catalog);
    if (!seg.ok() || !fp.ok()) {
      std::printf("zone scan setup error\n");
      ok = false;
    } else {
      // Three engines over identical rows: the already-decoded in-memory
      // table, the segment scan decoding every segment (skipping off), and
      // the zone-mapped segment scan. The skipping speedup is the honest
      // out-of-core comparison (both sides pay decode); the in-memory time
      // bounds what decode itself costs.
      auto run_scan = [&](bool segments, bool skipping, ExecContext* out) {
        ExecContext local;
        ExecContext* c = out != nullptr ? out : &local;
        c->catalog = &env.catalog;
        if (segments) {
          c->segment_tables[env.lineitem] = &*seg;
        } else {
          c->base_tables[env.lineitem] = &sorted;
        }
        c->zone_map_skipping = skipping;
        return ExecutePlan(fp->get(), c);
      };
      ExecContext zone_ctx;
      Result<Table> mem = run_scan(false, true, nullptr);
      Result<Table> all_segs = run_scan(true, false, nullptr);
      Result<Table> zoned = run_scan(true, true, &zone_ctx);
      bool verified = mem.ok() && all_segs.ok() && zoned.ok() &&
                      CanonicalRows(*mem) == CanonicalRows(*zoned) &&
                      CanonicalRows(*mem) == CanonicalRows(*all_segs);
      ok = ok && verified;
      uint64_t skipped = zone_ctx.segments_skipped.load();
      uint64_t scanned = zone_ctx.segments_scanned.load();

      auto timed = [&](bool segments, bool skipping) {
        return BestOf(reps, [&] {
          auto t0 = Clock::now();
          Result<Table> t = run_scan(segments, skipping, nullptr);
          auto t1 = Clock::now();
          if (!t.ok()) return 1e300;
          return std::chrono::duration<double>(t1 - t0).count();
        });
      };
      double mem_s = timed(false, true);
      double full_s = timed(true, false);
      double zone_s = timed(true, true);
      std::printf(
          "zone scan: in-memory %.2f ms, all-segments %.2f ms, "
          "zone-mapped %.2f ms (%.2fx over all-segments), "
          "%llu/%llu segments skipped, %zu rows%s\n\n",
          mem_s * 1e3, full_s * 1e3, zone_s * 1e3, full_s / zone_s,
          static_cast<unsigned long long>(skipped),
          static_cast<unsigned long long>(scanned),
          zoned.ok() ? zoned->num_rows() : 0,
          verified ? "" : "  RESULT MISMATCH");
      w.Key("zone_scan").BeginObject();
      w.Key("in_memory_ms").Double(mem_s * 1e3);
      w.Key("all_segments_ms").Double(full_s * 1e3);
      w.Key("zone_scan_ms").Double(zone_s * 1e3);
      w.Key("speedup_over_full_decode").Double(full_s / zone_s);
      w.Key("segments_skipped").UInt(skipped);
      w.Key("segments_considered").UInt(scanned);
      w.Key("rows").UInt(zoned.ok() ? zoned->num_rows() : 0);
      w.Key("verified").Bool(verified);
      w.EndObject();
    }
  }

  // ------------------------------------------------------------- spill ---
  // lineitem JOIN orders under a 64 KB budget: the build side partitions by
  // key hash, overflow partitions spill to disk as segments and recurse
  // (>= 2 generations asserted). Output must serialize bit-identically to
  // the unbounded in-memory join, single-threaded and at 8 threads.
  {
    PlanBuilder b(&env.catalog);
    Result<PlanPtr> fp =
        FinishPlan(Join(b.Rel("lineitem"), b.Rel("orders"),
                        {b.Pa("l_orderkey", CmpOp::kEq, "o_orderkey")}),
                   env.catalog);
    ThreadPool pool8(8);
    MorselScheduler sched8(&pool8);
    auto run = [&](uint64_t budget, MorselScheduler* sched, ExecContext* out) {
      ExecContext local;
      ExecContext* ctx = out != nullptr ? out : &local;
      ctx->catalog = &env.catalog;
      ctx->base_tables[env.lineitem] = &db.at(env.lineitem);
      ctx->base_tables[env.orders] = &db.at(env.orders);
      ctx->memory_budget = budget;
      ctx->morsels = sched;
      return ExecutePlan(fp->get(), ctx);
    };
    Result<Table> mem = fp.ok()
                            ? run(0, nullptr, nullptr)
                            : Result<Table>(fp.status());
    ExecContext spill_ctx, spill8_ctx;
    Result<Table> sp1 =
        fp.ok() ? run(64 << 10, nullptr, &spill_ctx) : mem;
    Result<Table> sp8 = fp.ok() ? run(64 << 10, &sched8, &spill8_ctx) : mem;
    bool verified = mem.ok() && sp1.ok() && sp8.ok() &&
                    sp1->SerializeColumns() == mem->SerializeColumns() &&
                    sp8->SerializeColumns() == mem->SerializeColumns();
    uint64_t generations = spill_ctx.spill_generations.load();
    bool spill_gate = verified && generations >= 2;
    ok = ok && spill_gate;

    double mem_s = BestOf(reps, [&] {
      auto t0 = Clock::now();
      Result<Table> t = run(0, nullptr, nullptr);
      auto t1 = Clock::now();
      if (!t.ok()) return 1e300;
      return std::chrono::duration<double>(t1 - t0).count();
    });
    double sp1_s = BestOf(reps, [&] {
      auto t0 = Clock::now();
      Result<Table> t = run(64 << 10, nullptr, nullptr);
      auto t1 = Clock::now();
      if (!t.ok()) return 1e300;
      return std::chrono::duration<double>(t1 - t0).count();
    });
    double sp8_s = BestOf(reps, [&] {
      auto t0 = Clock::now();
      Result<Table> t = run(64 << 10, &sched8, nullptr);
      auto t1 = Clock::now();
      if (!t.ok()) return 1e300;
      return std::chrono::duration<double>(t1 - t0).count();
    });
    std::printf(
        "spill join: in-memory %.2f ms, spilled %.2f ms (1t) / %.2f ms "
        "(8t), %llu partitions over %llu generations, %.1f KB spilled, "
        "%zu rows%s\n\n",
        mem_s * 1e3, sp1_s * 1e3, sp8_s * 1e3,
        static_cast<unsigned long long>(spill_ctx.spill_partitions.load()),
        static_cast<unsigned long long>(generations),
        static_cast<double>(spill_ctx.spill_bytes.load()) / 1024.0,
        mem.ok() ? mem->num_rows() : 0,
        spill_gate ? "" : "  GATE FAIL (verify or generations)");
    w.Key("spill_join").BeginObject();
    w.Key("budget_bytes").UInt(64 << 10);
    w.Key("in_memory_ms").Double(mem_s * 1e3);
    w.Key("spilled_1t_ms").Double(sp1_s * 1e3);
    w.Key("spilled_8t_ms").Double(sp8_s * 1e3);
    w.Key("spill_partitions").UInt(spill_ctx.spill_partitions.load());
    w.Key("spill_generations").UInt(generations);
    w.Key("spill_bytes").UInt(spill_ctx.spill_bytes.load());
    w.Key("rows").UInt(mem.ok() ? mem->num_rows() : 0);
    w.Key("verified").Bool(verified);
    w.EndObject();
  }

  // ----------------------------------------------------- bytes on wire ---
  // Random authorized scenarios through the full distributed pipeline
  // (SimNet transfers between assignees, each a segment frame). String
  // columns draw from a 6-value vocabulary, so dictionary pages dominate;
  // every run must match the plaintext oracle.
  {
    uint64_t wire_seg = 0;
    size_t scenarios = 0;
    bool wire_verified = true;
    for (uint64_t seed = 1; seed <= 60 && scenarios < 12; ++seed) {
      RandomPlanOptions opts;
      opts.provider_plain_prob = 0.50;
      opts.provider_enc_prob = 0.45;
      Result<RandomScenario> sc = MakeRandomScenario(seed, opts);
      if (!sc.ok()) continue;
      std::map<RelId, Table> data = MakeRandomData(*sc, seed ^ 0xfeed, 200);
      PricingTable prices;
      prices.SetDefault(PriceList{10.0, 0.0002, 0.001});
      for (const Subject& s : sc->subjects->subjects()) {
        if (s.kind == SubjectKind::kProvider) {
          prices.Set(s.id, PriceList{0.05, 0.0002, 0.001});
        }
      }
      Topology topo = Topology::PaperDefaults(*sc->subjects);
      ReferenceExecutor oracle(sc->catalog.get());
      for (const auto& [rel, t] : data) oracle.LoadTable(rel, &t);
      Result<Table> reference = oracle.Run(sc->plan.get());
      if (!reference.ok()) continue;

      SimNet net(sc->subjects.get());
      FailoverExecutor exec(sc->catalog.get(), sc->subjects.get(),
                            sc->policy.get(), &prices, &topo, &net,
                            FailoverConfig{});
      for (const auto& [rel, t] : data) exec.LoadTable(rel, &t);
      Result<FailoverOutcome> seg = exec.Execute(sc->plan.get(), sc->user);
      if (!seg.ok()) continue;
      if (seg->result.total_transfer_bytes == 0) continue;  // single-site
      wire_verified = wire_verified && CanonicalRows(seg->result.result) ==
                                           CanonicalRows(*reference);
      wire_seg += seg->result.total_transfer_bytes;
      scenarios++;
    }
    bool wire_gate = wire_verified && scenarios > 0;
    ok = ok && wire_gate;
    std::printf(
        "wire bytes over %zu distributed scenarios: segment %llu B%s\n\n",
        scenarios, static_cast<unsigned long long>(wire_seg),
        wire_gate ? "" : "  GATE FAIL");
    w.Key("wire").BeginObject();
    w.Key("scenarios").UInt(scenarios);
    w.Key("segment_bytes").UInt(wire_seg);
    w.Key("verified").Bool(wire_verified);
    w.EndObject();
  }

  w.Key("all_verified").Bool(ok);
  w.EndObject();
  bench::WriteJsonFile(json_path, w.TakeString());
  std::printf("wrote %s\n", json_path.c_str());
  std::printf("gates: %s\n", ok ? "pass" : "FAIL");
  return ok ? 0 : 1;
}
