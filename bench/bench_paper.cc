// Paper bench: the economic-cost results of the paper, reproduced from the
// optimizer. Each of the 22 TPC-H queries and the Sec 7 udf query is built
// once and optimized once under each authorization scenario (UA, UAPenc,
// UAPmix), with the scenario pricing and topology at costing sf 1 over 3
// providers. Four sections come from those optimizations:
//  - Fig 9: per-query cost, normalized to UA.
//  - Fig 10: cumulative normalized cost and the total savings vs UA, shown
//    beside the paper's 54.2% (UAPenc) and 71.3% (UAPmix). No constant is
//    tuned toward them: the gap is reported as measured.
//  - Sec 5 ablation: the minimally extended plan vs encrypting every
//    attribute at the source and decrypting on demand, under UAPenc.
//  - Sec 7: udf delegation savings, against Q1 (a similar scan + aggregate
//    without the udf).
//
// Gates (the process exits 1 on any failure): every build and optimization
// succeeds, and every shape check holds:
//  - Fig 9: UAPenc <= UA and UAPmix <= UAPenc on every query;
//  - ablation: the minimal plan never encrypts more attributes than the
//    encrypt-everything plan and never costs more;
//  - Sec 7: under UAPenc the udf query saves at least as much as Q1.
// The udf query's UAPmix row is reported, not gated: it costs more than
// under UA. The UA assignment stays authorized under UAPmix and
// OptimizeExhaustive finds it at the UA cost, so the excess comes from the
// DP's approximate objective choosing a provider, not from authorization.
//
// Usage: bench_paper [--json <path>]; writes BENCH_paper.json by default.

#include <cstdio>
#include <string>
#include <vector>

#include "assign/assignment.h"
#include "bench_json.h"
#include "profile/propagate.h"
#include "tpch/queries.h"
#include "tpch/scenarios.h"

using namespace mpq;

namespace {

constexpr int kUA = 0, kEnc = 1, kMix = 2;
const AuthScenario kScenarios[] = {AuthScenario::kUA, AuthScenario::kUAPenc,
                                   AuthScenario::kUAPmix};
// Fig 10 total savings vs UA reported by the paper.
constexpr double kPaperEncSavingsPct = 54.2;
constexpr double kPaperMixSavingsPct = 71.3;

/// One query optimized under every scenario (indexed kUA, kEnc, kMix).
struct QueryCosts {
  /// Exact cost of the chosen, minimally extended plan.
  double usd[3] = {0, 0, 0};
  /// Attributes that extension encrypts.
  size_t enc_attrs[3] = {0, 0, 0};
  /// `usd` plus full-relation encryption, at its owner, of every base
  /// attribute the extension leaves in plaintext.
  double encrypt_all_usd[3] = {0, 0, 0};
  /// Attributes the query reads at its leaves.
  size_t leaf_attrs = 0;
};

Result<QueryCosts> OptimizeUnderEachScenario(const TpchEnv& env,
                                             Result<PlanPtr> built,
                                             const PricingTable& prices,
                                             const Topology& topo) {
  if (!built.ok()) return built.status();
  PlanNode* plan = built->get();
  MPQ_RETURN_NOT_OK(DerivePlaintextNeeds(plan, env.catalog, SchemeCaps{}));
  MPQ_RETURN_NOT_OK(AnnotatePlan(plan, env.catalog));
  SchemeMap schemes = AnalyzeSchemes(plan, env.catalog, SchemeCaps{});
  CostModel cm(&env.catalog, &prices, &topo, &schemes);

  QueryCosts out;
  AttrSet leaf_attrs;
  for (const PlanNode* n : PostOrder(plan)) {
    if (n->kind == OpKind::kProject && n->child(0)->kind == OpKind::kBase) {
      leaf_attrs.InsertAll(n->attrs);
    } else if (n->kind == OpKind::kBase) {
      leaf_attrs.InsertAll(env.catalog.Get(n->rel).schema.Attrs());
    }
  }
  out.leaf_attrs = leaf_attrs.size();
  for (int s : {kUA, kEnc, kMix}) {
    MPQ_ASSIGN_OR_RETURN(Policy policy, MakeScenarioPolicy(env, kScenarios[s]));
    MPQ_ASSIGN_OR_RETURN(CandidatePlan cp, ComputeCandidates(plan, policy));
    AssignmentOptimizer opt(&policy, &cm);
    MPQ_ASSIGN_OR_RETURN(AssignmentResult r, opt.Optimize(plan, cp, env.user));
    out.usd[s] = r.exact_cost.total_usd();
    out.enc_attrs[s] = r.extended.encrypted_attrs.size();
    double extra = 0;
    for (const PlanNode* n : PostOrder(r.extended.plan.get())) {
      if (n->kind != OpKind::kBase) continue;
      const RelationDef& rel = env.catalog.Get(n->rel);
      AttrSet plain = rel.schema.Attrs().Difference(r.extended.encrypted_attrs);
      extra += cm.CryptoCost(plain, rel.base_rows, rel.owner).total_usd();
    }
    out.encrypt_all_usd[s] = out.usd[s] + extra;
  }
  return out;
}

double SavingsPct(double cost, double base) {
  return 100.0 * (1.0 - cost / base);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = bench::ParseJsonFlag(&argc, argv, "BENCH_paper.json");
  TpchEnv env = MakeTpchEnv(/*costing_sf=*/1.0, /*num_providers=*/3);
  PricingTable prices = MakeScenarioPricing(env);
  Topology topo = MakeScenarioTopology(env);

  int errors = 0;
  std::vector<std::string> violations;
  std::vector<QueryCosts> queries;  // queries[q - 1]
  for (int q = 1; q <= NumTpchQueries(); ++q) {
    Result<QueryCosts> c =
        OptimizeUnderEachScenario(env, BuildTpchQuery(q, env), prices, topo);
    if (!c.ok()) {
      std::printf("Q%d error: %s\n", q, c.status().ToString().c_str());
      ++errors;
    }
    queries.push_back(c.ok() ? *c : QueryCosts{});
  }
  Result<QueryCosts> udf =
      OptimizeUnderEachScenario(env, BuildUdfQuery(env), prices, topo);
  if (!udf.ok()) {
    std::printf("udf query error: %s\n", udf.status().ToString().c_str());
    ++errors;
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("paper");
  w.Key("costing_sf").Double(1.0);
  w.Key("providers").UInt(3);
  bench::WriteRunMeta(&w);

  // Fig 9.
  std::printf("Figure 9 — normalized per-query cost (UA = 1.0)\n");
  std::printf("%-6s %10s %10s %10s\n", "query", "UA", "UAPenc", "UAPmix");
  int enc_le_ua = 0, mix_le_enc = 0;
  w.Key("fig9").BeginArray();
  for (size_t i = 0; i < queries.size(); ++i) {
    const double* usd = queries[i].usd;
    const double base = usd[kUA];
    std::printf("%-6zu %10.3f %10.3f %10.3f\n", i + 1, 1.0, usd[kEnc] / base,
                usd[kMix] / base);
    if (usd[kEnc] <= usd[kUA] + 1e-12) {
      ++enc_le_ua;
    } else {
      violations.push_back("Fig 9 Q" + std::to_string(i + 1) + ": UAPenc > UA");
    }
    if (usd[kMix] <= usd[kEnc] + 1e-12) {
      ++mix_le_enc;
    } else {
      violations.push_back("Fig 9 Q" + std::to_string(i + 1) +
                           ": UAPmix > UAPenc");
    }
    w.BeginObject();
    w.Key("query").UInt(i + 1);
    w.Key("ua_usd").Double(usd[kUA]);
    w.Key("uapenc_usd").Double(usd[kEnc]);
    w.Key("uapmix_usd").Double(usd[kMix]);
    w.Key("uapenc_norm").Double(usd[kEnc] / base);
    w.Key("uapmix_norm").Double(usd[kMix] / base);
    w.EndObject();
  }
  w.EndArray();
  w.Key("fig9_uapenc_le_ua").UInt(enc_le_ua);
  w.Key("fig9_uapmix_le_uapenc").UInt(mix_le_enc);
  std::printf(
      "shape: UAPenc<=UA on %d/%zu queries; UAPmix<=UAPenc on %d/%zu\n\n",
      enc_le_ua, queries.size(), mix_le_enc, queries.size());

  // Fig 10: each query normalized by its own UA cost, then accumulated.
  std::printf(
      "Figure 10 — cumulative normalized cost (per-query UA = 1.0)\n"
      "%-6s %10s %10s %10s\n",
      "query", "UA", "UAPenc", "UAPmix");
  double cum[3] = {0, 0, 0};
  for (size_t i = 0; i < queries.size(); ++i) {
    for (int s : {kUA, kEnc, kMix}) {
      cum[s] += queries[i].usd[s] / queries[i].usd[kUA];
    }
    std::printf("%-6zu %10.3f %10.3f %10.3f\n", i + 1, cum[kUA], cum[kEnc],
                cum[kMix]);
  }
  const double enc_savings = SavingsPct(cum[kEnc], cum[kUA]);
  const double mix_savings = SavingsPct(cum[kMix], cum[kUA]);
  std::printf(
      "total savings vs UA: UAPenc %.1f%% (paper: %.1f%%), UAPmix %.1f%% "
      "(paper: %.1f%%)\n\n",
      enc_savings, kPaperEncSavingsPct, mix_savings, kPaperMixSavingsPct);
  w.Key("fig10").BeginObject();
  w.Key("cum_ua").Double(cum[kUA]);
  w.Key("cum_uapenc").Double(cum[kEnc]);
  w.Key("cum_uapmix").Double(cum[kMix]);
  w.Key("uapenc_savings_pct").Double(enc_savings);
  w.Key("uapmix_savings_pct").Double(mix_savings);
  w.Key("paper_uapenc_savings_pct").Double(kPaperEncSavingsPct);
  w.Key("paper_uapmix_savings_pct").Double(kPaperMixSavingsPct);
  w.EndObject();

  // Sec 5 ablation, under UAPenc.
  std::printf(
      "Ablation — minimal vs encrypt-everything (UAPenc)\n"
      "%-6s %14s %14s %12s %12s\n",
      "query", "min enc attrs", "max enc attrs", "min cost", "max cost");
  w.Key("ablation").BeginArray();
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryCosts& c = queries[i];
    std::printf("%-6zu %14zu %14zu %12.5f %12.5f\n", i + 1, c.enc_attrs[kEnc],
                c.leaf_attrs, c.usd[kEnc], c.encrypt_all_usd[kEnc]);
    if (c.enc_attrs[kEnc] > c.leaf_attrs) {
      violations.push_back("ablation Q" + std::to_string(i + 1) +
                           ": minimal encrypts more attributes");
    }
    if (c.usd[kEnc] > c.encrypt_all_usd[kEnc] + 1e-12) {
      violations.push_back("ablation Q" + std::to_string(i + 1) +
                           ": minimal costs more");
    }
    w.BeginObject();
    w.Key("query").UInt(i + 1);
    w.Key("min_enc_attrs").UInt(c.enc_attrs[kEnc]);
    w.Key("max_enc_attrs").UInt(c.leaf_attrs);
    w.Key("min_usd").Double(c.usd[kEnc]);
    w.Key("max_usd").Double(c.encrypt_all_usd[kEnc]);
    w.EndObject();
  }
  w.EndArray();

  // Sec 7 udf delegation.
  std::printf("\nUDF delegation savings (Sec 7)\n");
  w.Key("udf").BeginArray();
  const QueryCosts udf_costs = udf.ok() ? *udf : QueryCosts{};
  auto udf_row = [&](const char* name, const QueryCosts& c) {
    const double enc = SavingsPct(c.usd[kEnc], c.usd[kUA]);
    const double mix = SavingsPct(c.usd[kMix], c.usd[kUA]);
    std::printf(
        "%-20s UA=%.5f UAPenc=%.5f (%.1f%% saved) UAPmix=%.5f (%.1f%% "
        "saved)\n",
        name, c.usd[kUA], c.usd[kEnc], enc, c.usd[kMix], mix);
    w.BeginObject();
    w.Key("name").String(name);
    w.Key("ua_usd").Double(c.usd[kUA]);
    w.Key("uapenc_usd").Double(c.usd[kEnc]);
    w.Key("uapmix_usd").Double(c.usd[kMix]);
    w.Key("uapenc_savings_pct").Double(enc);
    w.Key("uapmix_savings_pct").Double(mix);
    w.EndObject();
  };
  udf_row("Q1 (no udf)", queries[0]);
  udf_row("udf analytics query", udf_costs);
  w.EndArray();
  if (SavingsPct(udf_costs.usd[kEnc], udf_costs.usd[kUA]) <
      SavingsPct(queries[0].usd[kEnc], queries[0].usd[kUA])) {
    violations.push_back("Sec 7: udf query saves less than Q1 under UAPenc");
  }

  for (const std::string& v : violations) {
    std::printf("SHAPE VIOLATION: %s\n", v.c_str());
  }
  const bool ok = errors == 0 && violations.empty();
  w.Key("optimize_errors").UInt(errors);
  w.Key("shape_violations").UInt(violations.size());
  w.Key("shape_ok").Bool(ok);
  w.EndObject();
  bench::WriteJsonFile(json_path, w.TakeString());
  std::printf("\nshape checks: %s\nwrote %s\n", ok ? "ok" : "FAILED",
              json_path.c_str());
  return ok ? 0 : 1;
}
