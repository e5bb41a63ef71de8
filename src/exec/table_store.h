// Versioned table storage: MVCC snapshots over the copy-on-write column
// payloads of exec/table.h. Writers mutate a private copy of one relation's
// Table (cloning only the columns they touch, via col_mut) and publish the
// result as a new immutable Snapshot; readers pin the current Snapshot once
// and see a frozen, fully-committed state for the whole query — an in-flight
// query never observes a partial write. Publication is a shared_ptr swap, so
// readers never block on writers and writers never wait for readers.
//
// Hotspot counters: contended numeric cells (quota counters, balances) can
// be detached into MRV counters (exec/mrv.h) keyed by (relation, value
// column, key). Counter updates run outside the writer lock on per-record
// atomics — they do not serialize on one record or on table writes — and
// are folded back into the snapshot-visible cell by FlushCounters() or the
// background maintenance loop.

#ifndef MPQ_EXEC_TABLE_STORE_H_
#define MPQ_EXEC_TABLE_STORE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "catalog/catalog.h"
#include "exec/mrv.h"
#include "exec/table.h"
#include "storage/segment.h"

namespace mpq {

/// One immutable published version of every stored relation. Holding the
/// shared_ptr pins every table (and the column payloads inside them) for as
/// long as a reader needs them, independent of later publishes.
struct Snapshot {
  /// Monotonically increasing publication id (QueryStats::snapshot_id
  /// reports the one a request read).
  uint64_t id = 0;
  std::map<RelId, std::shared_ptr<const Table>> tables;
  /// Relations demoted to compressed segments (TableStore::MakeCold). A
  /// cold relation has no entry in `tables`; readers decode lazily — Get()
  /// materializes on first touch (memoized, shared across snapshots until
  /// the relation is written again), and segment-aware scans can read the
  /// SegmentedTable directly to skip segments via zone maps.
  std::map<RelId, std::shared_ptr<const SegmentedTable>> cold;

  /// The pinned table of `rel`, or nullptr when the store holds none. Cold
  /// relations decode on first call (cached thereafter).
  const Table* Get(RelId rel) const {
    auto it = tables.find(rel);
    if (it != tables.end()) return it->second.get();
    auto c = cold.find(rel);
    if (c == cold.end()) return nullptr;
    Result<const Table*> t = c->second->Materialize();
    return t.ok() ? *t : nullptr;
  }

  /// The segment-backed form of `rel`, or nullptr when `rel` is hot (or
  /// absent).
  const SegmentedTable* GetCold(RelId rel) const {
    auto c = cold.find(rel);
    return c == cold.end() ? nullptr : c->second.get();
  }
};

/// The store. All methods are thread-safe; reads are wait-free snapshot
/// pins, writes serialize on one writer lock (single-writer commit).
class TableStore {
 public:
  TableStore() = default;
  ~TableStore();

  TableStore(const TableStore&) = delete;
  TableStore& operator=(const TableStore&) = delete;

  /// Registers (or replaces) the data of a base relation and publishes a
  /// new snapshot containing it.
  uint64_t Put(RelId rel, Table data);

  /// The current snapshot (cheap: one shared_ptr copy under a mutex).
  std::shared_ptr<const Snapshot> Current() const;

  /// Id of the current snapshot without pinning it.
  uint64_t snapshot_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Single-writer commit: runs `mutate` on a private copy of `rel`'s table
  /// (column clones are copy-on-write — untouched columns are pointer
  /// copies) and publishes the result as a new snapshot. When `mutate`
  /// fails nothing is published. Returns the new snapshot id.
  Result<uint64_t> Mutate(RelId rel,
                          const std::function<Status(Table*)>& mutate);

  /// Demotes `rel` to compressed segments of `rows_per_segment` rows (zero
  /// means one segment) and publishes a snapshot where the relation is
  /// cold: readers decode lazily via Snapshot::Get / GetCold. Writing the
  /// relation again (Put / Mutate / FlushCounters) warms it back to a
  /// plain table.
  Result<uint64_t> MakeCold(RelId rel, size_t rows_per_segment);

  // ---- MRV hotspot counters -----------------------------------------------

  /// Detaches the int64 cell (`value_col`) of the row where `key_col` ==
  /// `key` into an MRV counter split over `num_records` records, seeded
  /// with the cell's current value. The cell keeps serving its last flushed
  /// value to queries; updates go through MrvAdd/MrvSub.
  Status MrvAttach(RelId rel, int key_col, int64_t key, int value_col,
                   size_t num_records);

  /// Adds `delta` >= 0 to the counter (rel, value_col, key).
  Status MrvAdd(RelId rel, int value_col, int64_t key, int64_t delta);

  /// Subtracts `delta` >= 0; fails without effect when the counter holds
  /// less than `delta` (invariant total >= 0).
  Status MrvSub(RelId rel, int value_col, int64_t key, int64_t delta);

  /// The counter's live total (including updates not yet flushed).
  Result<int64_t> MrvTotal(RelId rel, int value_col, int64_t key) const;

  Result<MrvStats> MrvStatsFor(RelId rel, int value_col, int64_t key) const;

  /// True when some counter is attached to a cell of (rel, col) — such
  /// columns reject plain UPDATEs (the counter API is the write path).
  bool MrvCoversColumn(RelId rel, int col) const;

  /// Folds every counter's current total into its table cell and publishes
  /// the affected relations as new snapshots. Counters whose key row was
  /// deleted are skipped (their value stays readable via MrvTotal).
  Status FlushCounters();

  /// Runs Balance + AdjustStep over every counter once — one background
  /// maintenance round. Exposed for deterministic tests.
  void MaintainCounters();

  /// Starts a background thread running MaintainCounters every `period_ms`
  /// (no flush — snapshot visibility stays explicit). No-op when running.
  void StartMaintenance(int64_t period_ms);
  void StopMaintenance();

 private:
  struct MrvEntry {
    int key_col = -1;
    std::unique_ptr<MrvCounter> counter;
  };
  /// Registry key: (rel, value column, row key).
  using MrvKey = std::tuple<RelId, int, int64_t>;

  uint64_t PublishLocked(RelId rel, std::shared_ptr<const Table> table);
  Result<uint64_t> MutateLocked(RelId rel,
                                const std::function<Status(Table*)>& mutate);
  Result<MrvCounter*> FindCounter(RelId rel, int value_col,
                                  int64_t key) const;

  /// Serializes writers (Put / Mutate / FlushCounters).
  std::mutex writer_mu_;
  /// Guards `current_` (the publication point).
  mutable std::mutex state_mu_;
  std::shared_ptr<const Snapshot> current_ =
      std::make_shared<const Snapshot>();
  std::atomic<uint64_t> epoch_{0};

  /// Counter registry: attach takes the exclusive lock, per-op lookups the
  /// shared one (the counters themselves are lock-free beyond that).
  mutable std::shared_mutex mrv_mu_;
  std::map<MrvKey, MrvEntry> counters_;

  std::mutex maint_mu_;
  std::condition_variable maint_cv_;
  bool maint_stop_ = false;
  std::thread maint_thread_;
};

}  // namespace mpq

#endif  // MPQ_EXEC_TABLE_STORE_H_
