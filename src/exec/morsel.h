// Morsel-driven scheduling: a single global run registry on top of the
// work-stealing ThreadPool, plus inter-query shared scans.
//
// A "morsel" is a fixed [begin, end) index range over a column batch. The
// scheduler registers each operator loop as a *run* in a global FIFO; pool
// workers pump the oldest unfinished run, while the query that owns a run
// claims its own morsels cooperatively (the caller thread always
// participates, so a run makes progress even when every worker is busy with
// other queries). Morsel boundaries depend only on (n, grain) — never on the
// number of threads or the interleaving — so per-morsel results merged in
// morsel order are bit-identical at 1, 2, or N threads.
//
// SharedScanManager coalesces concurrent same-snapshot scans: the first
// query over a given (payload, n, grain) becomes the *leader*, later
// arrivals *attach* to the in-flight scan from its current position, catch
// up on the prefix they missed themselves, and from then on every claimed
// batch is evaluated once per attached query while it is hot in cache.
// Each participant runs its own callback against its own table, so the
// coalescing key is purely a profitability heuristic — correctness only
// needs equal row count and batch partitioning.

#ifndef MPQ_EXEC_MORSEL_H_
#define MPQ_EXEC_MORSEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"

namespace mpq {

/// Global morsel queue: the engine's only parallel route. One instance is
/// shared by every query a service (or a distributed runtime) executes;
/// operator loops and independent plan subtrees call Run(), so all
/// concurrent queries draw from one task pool instead of each fanning out
/// independently.
class MorselScheduler {
 public:
  /// `pool` may be null (every Run executes inline, sequentially).
  explicit MorselScheduler(ThreadPool* pool) : pool_(pool) {}

  MorselScheduler(const MorselScheduler&) = delete;
  MorselScheduler& operator=(const MorselScheduler&) = delete;

  /// Runs `fn(begin, end)` over [0, n) in morsels of `grain` indices.
  /// Registers the run in the global FIFO so pool workers help; the calling
  /// thread claims morsels from its own run first, then pumps other runs
  /// while waiting. Deterministic: morsel boundaries depend only on (n,
  /// grain); on error the Status of the lowest-index failing morsel wins.
  /// With a pool every morsel still executes after a failure; inline, the
  /// loop stops at the first failing morsel. Run may nest inside a morsel.
  Status Run(size_t n, size_t grain,
             const std::function<Status(size_t, size_t)>& fn);

  /// Morsels executed since construction (inline and pooled).
  uint64_t morsels_executed() const {
    return reg_->executed.load(std::memory_order_relaxed);
  }
  /// Run() invocations since construction.
  uint64_t runs_started() const {
    return reg_->runs.load(std::memory_order_relaxed);
  }
  /// Morsels registered but not yet executed — the queue-depth gauge.
  uint64_t morsels_pending() const {
    return reg_->pending.load(std::memory_order_relaxed);
  }
  /// High-water mark of morsels_pending().
  uint64_t queue_depth_peak() const {
    return reg_->peak.load(std::memory_order_relaxed);
  }

  ThreadPool* pool() const { return pool_; }

 private:
  /// One registered Run(). Pump tasks hold it via shared_ptr so a task
  /// scheduled after the run finished still finds valid (exhausted) state.
  struct RunState {
    size_t n = 0;
    size_t grain = 1;
    size_t num_morsels = 0;
    std::function<Status(size_t, size_t)> fn;
    std::mutex mu;
    std::condition_variable cv;
    size_t next_morsel = 0;          // guarded by mu
    size_t morsels_done = 0;         // guarded by mu
    size_t error_morsel = SIZE_MAX;  // guarded by mu
    Status error;                    // guarded by mu
  };

  /// The global run FIFO plus counters. Shared-owned by pump tasks so a
  /// task that outlives the scheduler (pool drains during shutdown) still
  /// touches valid state.
  struct Registry {
    std::mutex mu;
    std::deque<std::shared_ptr<RunState>> active;  // guarded by mu
    std::atomic<uint64_t> runs{0};
    std::atomic<uint64_t> executed{0};
    std::atomic<uint64_t> pending{0};
    std::atomic<uint64_t> peak{0};
  };

  /// Claims and runs one morsel of `rs`. Returns false when `rs` has no
  /// unclaimed morsels left.
  static bool ClaimAndRunOne(const std::shared_ptr<Registry>& reg,
                             const std::shared_ptr<RunState>& rs);
  /// Claims one morsel from the oldest registered run with work left,
  /// popping exhausted runs off the FIFO. Returns false when the registry
  /// is drained.
  static bool PumpOne(const std::shared_ptr<Registry>& reg);

  ThreadPool* pool_;
  std::shared_ptr<Registry> reg_ = std::make_shared<Registry>();
};

/// Runs `fn(begin, end)` over [0, n) in morsels of `grain` indices on
/// `sched`, or, when `sched` is null, as an inline loop over the identical
/// partition that stops at the first failing morsel. Callers that may or may
/// not have a scheduler (operators, the segment codec) all go through here,
/// so the morsel boundaries, and with them the results, never depend on
/// which route ran.
Status RunMorsels(MorselScheduler* sched, size_t n, size_t grain,
                  const std::function<Status(size_t, size_t)>& fn);

/// Coalesces concurrent scans over the same in-memory column payload onto
/// one batch-claim loop. Thread-safe; one instance per service.
class SharedScanManager {
 public:
  SharedScanManager() = default;
  SharedScanManager(const SharedScanManager&) = delete;
  SharedScanManager& operator=(const SharedScanManager&) = delete;

  /// Scans n rows in batches of `grain`, calling `fn(batch, begin, end)`
  /// once per batch in arbitrary order (callers must make per-batch results
  /// order-independent, e.g. write into a slot indexed by `batch`). `id`
  /// identifies the physical payload being scanned — concurrent Scan calls
  /// with the same (id, n, grain) coalesce: one leads, the rest attach and
  /// only self-scan the prefix the leader already passed. `fn` runs for
  /// every batch exactly once per caller regardless of coalescing. Scan
  /// never runs unrelated pool work while waiting — callers typically hold
  /// an admission slot, and inlining another query's task under it would
  /// hold the slot for that query's whole run.
  Status Scan(const void* id, size_t n, size_t grain,
              const std::function<Status(size_t, size_t, size_t)>& fn);

  /// Scans that started a new shared claim loop.
  uint64_t leads() const { return leads_.load(std::memory_order_relaxed); }
  /// Scans that attached to an in-flight claim loop.
  uint64_t attaches() const {
    return attaches_.load(std::memory_order_relaxed);
  }
  /// Batch evaluations that served >= 2 queries from one claim.
  uint64_t shared_batches() const {
    return shared_batches_.load(std::memory_order_relaxed);
  }

  /// Test hook: makes every new leader park before claiming its first
  /// batch, so a test can deterministically attach a second scan.
  void HoldNewScansForTesting();
  /// Releases scans parked by HoldNewScansForTesting and stops holding.
  void ReleaseHeldScansForTesting();

 private:
  struct Participant {
    std::function<Status(size_t, size_t, size_t)> fn;
    size_t first_batch = 0;  // batches below this are self-scanned
    size_t error_batch = SIZE_MAX;  // guarded by owning ScanState::mu
    Status error;                   // guarded by owning ScanState::mu
  };

  struct ScanState {
    size_t n = 0;
    size_t grain = 1;
    size_t num_batches = 0;
    std::mutex mu;
    std::condition_variable cv;
    size_t next_batch = 0;    // guarded by mu
    size_t batches_done = 0;  // guarded by mu
    bool held = false;        // guarded by mu (test hook)
    std::vector<std::shared_ptr<Participant>> parts;  // guarded by mu
  };

  using Key = std::tuple<const void*, size_t, size_t>;

  std::mutex mu_;
  std::map<Key, std::shared_ptr<ScanState>> active_;  // guarded by mu_
  bool hold_new_ = false;                             // guarded by mu_

  std::atomic<uint64_t> leads_{0};
  std::atomic<uint64_t> attaches_{0};
  std::atomic<uint64_t> shared_batches_{0};
};

}  // namespace mpq

#endif  // MPQ_EXEC_MORSEL_H_
