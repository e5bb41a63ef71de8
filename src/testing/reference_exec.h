// Row-path oracle for layout-differential testing: an independent row-major
// interpreter of (pre-extension) plaintext plans, deliberately retaining the
// pre-columnar `vector<vector<Cell>>` execution style — row-at-a-time
// predicate evaluation, row-materializing joins, row-major hash aggregation.
// It shares no operator code with the columnar engine, so a bit-identical
// CanonicalRows comparison between the two is evidence about the columnar
// rewrite, not a tautology. Differential tests run the full
// distributed-encrypted pipeline (with and without injected faults) and the
// single-site columnar engine against this oracle.
//
// The oracle doubles as the row-engine baseline `bench_engine` measures the
// columnar engine against.

#ifndef MPQ_TESTING_REFERENCE_EXEC_H_
#define MPQ_TESTING_REFERENCE_EXEC_H_

#include <map>
#include <string>
#include <vector>

#include "exec/executor.h"

namespace mpq {

/// The oracle. Base tables are copied into row-major form at load time, so
/// Run touches no columnar code at all.
class ReferenceExecutor {
 public:
  explicit ReferenceExecutor(const Catalog* catalog) : catalog_(catalog) {}

  void LoadTable(RelId rel, const Table* data);

  /// Plaintext single-site row-major execution of `plan`. Aggregation
  /// partial sums are folded per kDefaultBatchSize run of rows and merged
  /// in order — the same floating-point association the columnar engine
  /// uses at its default batch size — so double-valued aggregates are
  /// bit-identical, not merely close.
  Result<Table> Run(const PlanNode* plan) const;

 private:
  /// A row-major relation: the pre-columnar data layout.
  struct RowTable {
    std::vector<ExecColumn> cols;
    std::vector<std::vector<Cell>> rows;

    int ColIndex(AttrId attr) const;
  };

  Result<RowTable> Exec(const PlanNode* n) const;

  const Catalog* catalog_;
  std::map<RelId, RowTable> tables_;
};

/// Canonical order-insensitive rendering of a result table, the form
/// differential tests compare: columns sorted by attribute id, every cell
/// rendered bit-exactly (ints in full, doubles with 17 significant digits —
/// enough to round-trip IEEE-754), rows sorted lexicographically. Two tables
/// canonicalize equal iff they hold the same multiset of rows over the same
/// attributes; physical row order (which legitimately differs between a
/// hash-grouped ciphertext run and the plaintext oracle) does not matter.
std::vector<std::string> CanonicalRows(const Table& t);

}  // namespace mpq

#endif  // MPQ_TESTING_REFERENCE_EXEC_H_
