// The three authorization scenarios of the paper's evaluation (Sec 7):
//
//   UA      — only the querying user may access the base relations (beyond
//             each relation's own authority);
//   UAPenc  — cloud providers may additionally access every attribute of
//             every relation in encrypted form;
//   UAPmix  — half of the encrypted-only attributes become plaintext-visible
//             to providers.

#ifndef MPQ_TPCH_SCENARIOS_H_
#define MPQ_TPCH_SCENARIOS_H_

#include <memory>
#include <string>
#include <vector>

#include "authz/policy.h"
#include "net/pricing.h"
#include "net/topology.h"
#include "tpch/tpch_schema.h"

namespace mpq {

enum class AuthScenario { kUA, kUAPenc, kUAPmix };

const char* AuthScenarioName(AuthScenario s);

/// Builds the policy for `scenario`. The returned Policy references the
/// environment's catalog and subject registry, which must outlive it.
Result<Policy> MakeScenarioPolicy(const TpchEnv& env, AuthScenario scenario);

/// Paper pricing and topology for the environment (user 10× / authority 3×
/// provider cpu price; slight price diversity across providers; 10 Gbps
/// provider links, 100 Mbps client link).
PricingTable MakeScenarioPricing(const TpchEnv& env);
Topology MakeScenarioTopology(const TpchEnv& env);

/// The serving mix: the SQL dialect's renderings of a TPC-H cross-section —
/// selection-heavy Q6, the Q3 and Q10 join chains, Q12's attr-attr
/// predicate and a Q18-shaped HAVING aggregate — in that order.
const std::vector<std::string>& ServingMixSql();

}  // namespace mpq

#endif  // MPQ_TPCH_SCENARIOS_H_
