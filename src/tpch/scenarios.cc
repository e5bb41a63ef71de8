#include "tpch/scenarios.h"

namespace mpq {

const char* AuthScenarioName(AuthScenario s) {
  switch (s) {
    case AuthScenario::kUA:
      return "UA";
    case AuthScenario::kUAPenc:
      return "UAPenc";
    case AuthScenario::kUAPmix:
      return "UAPmix";
  }
  return "?";
}

Result<Policy> MakeScenarioPolicy(const TpchEnv& env, AuthScenario scenario) {
  Policy policy(&env.catalog, &env.subjects);
  for (const RelationDef& rel : env.catalog.relations()) {
    AttrSet all = rel.schema.Attrs();
    // The owning authority and the user see everything in plaintext.
    MPQ_RETURN_NOT_OK(policy.Grant(rel.id, rel.owner, all, {}));
    MPQ_RETURN_NOT_OK(policy.Grant(rel.id, env.user, all, {}));
    // The other authority gets nothing (closed policy) in all scenarios.
    if (scenario == AuthScenario::kUA) continue;

    for (SubjectId p : env.providers) {
      if (scenario == AuthScenario::kUAPenc) {
        MPQ_RETURN_NOT_OK(policy.Grant(rel.id, p, {}, all));
      } else {
        // UAPmix: half of the attributes become plaintext-visible. The
        // plaintext half starts from the key columns (so equi-join pairs
        // keep uniform visibility — a split that cuts a join pair in two
        // disqualifies providers via Def 4.1 condition 3, the paper's
        // counterintuitive example) and is padded with alternating non-key
        // columns up to half the schema.
        const auto& cols = rel.schema.columns();
        size_t half = (cols.size() + 1) / 2;
        AttrSet plain, enc;
        for (const Column& c : cols) {
          if (plain.size() < half &&
              c.name.find("key") != std::string::npos) {
            plain.Insert(c.attr);
          }
        }
        size_t parity = 0;
        for (const Column& c : cols) {
          if (plain.Contains(c.attr)) continue;
          if (plain.size() < half && parity++ % 2 == 0) {
            plain.Insert(c.attr);
          } else {
            enc.Insert(c.attr);
          }
        }
        MPQ_RETURN_NOT_OK(policy.Grant(rel.id, p, plain, enc));
      }
    }
  }
  return policy;
}

PricingTable MakeScenarioPricing(const TpchEnv& env) {
  PricingTable prices = PricingTable::PaperDefaults(env.subjects);
  // Slight provider diversity: later providers are marginally cheaper, so
  // cost-based assignment has something to choose between.
  for (size_t i = 0; i < env.providers.size(); ++i) {
    PriceList p = prices.Get(env.providers[i]);
    p.cpu_usd_per_hour *= 1.0 - 0.05 * static_cast<double>(i);
    prices.Set(env.providers[i], p);
  }
  return prices;
}

Topology MakeScenarioTopology(const TpchEnv& env) {
  return Topology::PaperDefaults(env.subjects);
}

const std::vector<std::string>& ServingMixSql() {
  static const std::vector<std::string> mix = {
      // Q6: forecasting revenue change.
      "select sum(l_extendedprice) from lineitem "
      "where l_shipdate >= 730 and l_shipdate < 1095 "
      "and l_discount >= 0.05 and l_discount <= 0.07 and l_quantity < 24.0",
      // Q3: shipping priority.
      "select o_orderkey, o_orderdate, o_shippriority, sum(l_extendedprice) "
      "from customer join orders on c_custkey = o_custkey "
      "join lineitem on o_orderkey = l_orderkey "
      "where c_mktsegment = 'BUILDING' and o_orderdate < 1204 "
      "and l_shipdate > 1204 "
      "group by o_orderkey, o_orderdate, o_shippriority",
      // Q10: returned item reporting.
      "select c_custkey, c_name, n_name, sum(l_extendedprice) "
      "from customer join orders on c_custkey = o_custkey "
      "join lineitem on o_orderkey = l_orderkey "
      "join nation on c_nationkey = n_nationkey "
      "where o_orderdate >= 640 and o_orderdate < 730 "
      "and l_returnflag = 'R' group by c_custkey, c_name, n_name",
      // Q12: shipping modes (attr-attr comparison).
      "select l_shipmode, count(*) from orders "
      "join lineitem on o_orderkey = l_orderkey "
      "where l_shipmode = 'MAIL' and l_receiptdate >= 730 "
      "and l_receiptdate < 1095 and l_commitdate < l_receiptdate "
      "group by l_shipmode",
      // Q18 shape: large-volume customers via HAVING.
      "select o_custkey, sum(l_extendedprice) from orders "
      "join lineitem on o_orderkey = l_orderkey "
      "group by o_custkey having sum(l_extendedprice) > 1000.0",
  };
  return mix;
}

}  // namespace mpq
