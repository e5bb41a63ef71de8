// Batch-parallel execution of (extended) query plans, including evaluation
// over ciphertexts: equality on DET, order on OPE, additive aggregation on
// Paillier, and on-the-fly encryption/decryption operators.
//
// Operators process fixed-size RowBatches; when an ExecContext carries a
// MorselScheduler, batches of one operator and independent plan subtrees run
// as morsels on its pool. Batch boundaries and merge order are thread-count
// independent, so results are deterministic at any pool size.

#ifndef MPQ_EXEC_EXECUTOR_H_
#define MPQ_EXEC_EXECUTOR_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "algebra/plan.h"
#include "common/rng.h"
#include "common/status.h"
#include "crypto/keyring.h"
#include "exec/table.h"
#include "profile/op_stats.h"

namespace mpq {

class MorselScheduler;
class QueryTrace;
class SegmentedTable;
class SharedScanManager;

/// Per-attribute encryption decisions: which scheme and key protect each
/// attribute whenever it is encrypted in the plan.
struct CryptoPlan {
  std::unordered_map<AttrId, EncScheme> scheme_of;
  std::unordered_map<AttrId, uint64_t> key_of;

  EncScheme SchemeOf(AttrId a) const {
    auto it = scheme_of.find(a);
    return it == scheme_of.end() ? EncScheme::kDeterministic : it->second;
  }
  uint64_t KeyOf(AttrId a) const {
    auto it = key_of.find(a);
    return it == key_of.end() ? 0 : it->second;
  }
};

/// A user-defined function: cells of the input attributes (in ascending
/// attribute-id order) to one output cell.
using UdfImpl = std::function<Result<Cell>(const std::vector<Cell>&)>;

/// Public Paillier moduli per key id — the public knowledge a provider
/// needs to aggregate ciphertexts homomorphically without holding any
/// private key. Group-by operators resolve this into fold-only ColumnCodec
/// instances once per operator.
using HomKeyDirectory = std::unordered_map<uint64_t, uint64_t>;

/// Borrowed base-relation data by relation id.
using BaseTables = std::unordered_map<RelId, const Table*>;

/// Execution environment. `keyring` holds the keys available to the engine
/// performing encryption/decryption operators — an engine without a key fails
/// with kNotFound, which is exactly the enforcement property key distribution
/// provides. `dispatcher_keyring` holds the keys of the party that prepared
/// the dispatched sub-queries: predicate *constants* compared against
/// encrypted columns are encrypted with it (the paper dispatches conditions
/// already formulated on encrypted values).
struct ExecContext {
  const Catalog* catalog = nullptr;
  BaseTables base_tables;
  /// When set, base relations are read from this map instead of
  /// `base_tables`: a runtime building one context per plan node points
  /// every context at one per-run map rather than copying it into each.
  const BaseTables* base_view = nullptr;
  const KeyRing* keyring = nullptr;
  const KeyRing* dispatcher_keyring = nullptr;
  /// Public Paillier moduli per key id (public knowledge; homomorphic
  /// addition needs no private key). Shared by pointer: a runtime building
  /// one context per plan node resolves the directory once instead of
  /// copying the map into every context. Null means no moduli are known.
  std::shared_ptr<const HomKeyDirectory> public_modulus;
  const CryptoPlan* crypto = nullptr;
  /// Nonce counter for predicate-constant encryption. Atomic so concurrent
  /// subtrees sharing one context can draw from it safely.
  std::atomic<uint64_t> nonce{0x9e3779b9u};
  /// Seed for encryption operators: each (node, attribute) derives its nonce
  /// range as a PRF of this seed, so ciphertexts are bit-identical at any
  /// thread count and across runs. Freshness is per (seed, node, attribute):
  /// callers re-executing a plan over *changed* data under kRandom/Paillier
  /// should change the seed (DistributedRuntime advances it every Run).
  uint64_t nonce_seed = 0x9e3779b97f4a7c15ull;
  std::unordered_map<std::string, UdfImpl> udfs;
  /// Serializes udf invocations across concurrently executing subtrees —
  /// registered implementations are not required to be thread-safe. Shared
  /// so runtimes building one context per plan node can still serialize
  /// every node's udf calls on one mutex.
  std::shared_ptr<std::mutex> udf_mu = std::make_shared<std::mutex>();
  /// When set, operators run their per-batch loops as morsels on this
  /// scheduler and ExecutePlan runs independent subtrees as morsels of one
  /// run — every query sharing the scheduler draws from one task queue.
  /// Null means fully sequential. Morsel boundaries are the same (n, grain)
  /// partition either way, so results stay bit-identical at any pool size.
  MorselScheduler* morsels = nullptr;
  /// When set, base-table selects coalesce with concurrent scans over the
  /// same column payload (see SharedScanManager). Pure scheduling: each
  /// query still evaluates its own predicate per batch.
  SharedScanManager* shared_scans = nullptr;
  /// Morsels this context has enqueued (relaxed; per-operator span
  /// attribution reads the delta around each operator).
  std::atomic<uint64_t> op_morsels{0};
  /// Rows per RowBatch. Also the parallel grain; results do not depend on it
  /// except for floating-point aggregation merge order (fixed per size).
  /// Zero is treated as one.
  size_t batch_size = Table::kDefaultBatchSize;
  /// When set, every executed operator records its wall time and row
  /// volumes here (thread-safe; typically shared by all engines of one
  /// serving process — see profile/op_stats.h).
  OpProfile* op_profile = nullptr;
  /// When set, every executed operator opens an "op" span under
  /// `trace_parent` (rows in/out, selectivity, wall time). Execution never
  /// reads the trace, so traced runs stay bit-identical to untraced ones.
  QueryTrace* trace = nullptr;
  uint64_t trace_parent = 0;  ///< Parent span id for operator spans.
  int trace_track = 0;        ///< Span track (assignee id when distributed).
  /// Byte budget for memory-intensive operators (join builds, group-by
  /// state). When an operator's working set would exceed it, the operator
  /// partitions its inputs by key hash, spills overflow partitions to disk
  /// as compressed segments, and recurses — outputs stay bit-identical to
  /// the in-memory path at any thread count. Zero means unbounded (never
  /// spill).
  uint64_t memory_budget = 0;
  /// Directory for spill segment files; empty means the system temp dir.
  std::string spill_dir;
  /// Segment-backed base relations: kBase scans fall through to these when
  /// the relation has no materialized entry in `base_tables`, decoding
  /// lazily (and skipping whole segments via zone maps when the scan is a
  /// select over constants). Ordered map so iteration order is stable.
  std::map<RelId, const SegmentedTable*> segment_tables;
  /// When false, segment-backed scans decode every segment (zone maps are
  /// consulted but never prune). A/B knob for measuring what skipping buys;
  /// results are identical either way.
  bool zone_map_skipping = true;
  /// Out-of-core / zone-map observability (relaxed; diagnostic only).
  std::atomic<uint64_t> spill_partitions{0};  ///< Partitions written.
  std::atomic<uint64_t> spill_bytes{0};       ///< Encoded bytes spilled.
  std::atomic<uint64_t> spill_generations{0};  ///< Max recursion depth + 1.
  std::atomic<uint64_t> segments_skipped{0};  ///< Segments pruned by zones.
  std::atomic<uint64_t> segments_scanned{0};  ///< Segments considered.

  /// The table bound to `rel` (through `base_view` when set), or null.
  const Table* BaseTable(RelId rel) const {
    const BaseTables& tables = base_view != nullptr ? *base_view : base_tables;
    auto it = tables.find(rel);
    return it == tables.end() ? nullptr : it->second;
  }

  uint64_t NextNonce() {
    return nonce.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Nonce base for encrypting column `attr` of node `node_id`: row r uses
  /// `base + r`. Deterministic in (seed, node, attribute) — independent of
  /// batch scheduling, thread count, and sibling-subtree execution order.
  uint64_t ColumnNonceBase(int node_id, AttrId attr) const {
    uint64_t h = nonce_seed ^
                 (static_cast<uint64_t>(node_id) + 1) * 0x9e3779b97f4a7c15ull;
    h ^= (static_cast<uint64_t>(attr) + 1) * 0xbf58476d1ce4e5b9ull;
    return SplitMix64(h);
  }
};

/// Executes `root` and returns the resulting table.
Result<Table> ExecutePlan(const PlanNode* root, ExecContext* ctx);

/// Executes exactly one operator over materialized operand tables (children
/// are NOT executed; `inputs` must match the node's arity). Base nodes take
/// no inputs and read from ctx->base_tables. This is the building block of
/// the distributed runtime, which runs each node under its assignee's
/// context.
Result<Table> ExecuteNodeOnInputs(const PlanNode* n, std::vector<Table> inputs,
                                  ExecContext* ctx);

/// Builds the initial table for a base relation from plaintext column data
/// given in schema order.
Table MakeBaseTable(const RelationDef& rel);

/// The built-in udf applied when no implementation is registered: a
/// weighted numeric combination over plaintext cells, an opaque
/// deterministic digest over ciphertexts. Exposed so the row-path reference
/// executor applies the bit-identical function.
Result<Cell> DefaultUdf(const std::vector<Cell>& cells);

}  // namespace mpq

#endif  // MPQ_EXEC_EXECUTOR_H_
