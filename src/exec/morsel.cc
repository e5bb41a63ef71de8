#include "exec/morsel.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace mpq {

bool MorselScheduler::ClaimAndRunOne(const std::shared_ptr<Registry>& reg,
                                     const std::shared_ptr<RunState>& rs) {
  size_t m;
  {
    std::lock_guard<std::mutex> lock(rs->mu);
    if (rs->next_morsel >= rs->num_morsels) return false;
    m = rs->next_morsel++;
  }
  // Every morsel runs even after a failure elsewhere: that keeps the
  // reported error (lowest failing morsel) deterministic across thread
  // counts.
  size_t begin = m * rs->grain;
  Status st = rs->fn(begin, std::min(begin + rs->grain, rs->n));
  reg->executed.fetch_add(1, std::memory_order_relaxed);
  reg->pending.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(rs->mu);
    if (!st.ok() && m < rs->error_morsel) {
      rs->error_morsel = m;
      rs->error = std::move(st);
    }
    if (++rs->morsels_done == rs->num_morsels) rs->cv.notify_all();
  }
  return true;
}

bool MorselScheduler::PumpOne(const std::shared_ptr<Registry>& reg) {
  for (;;) {
    std::shared_ptr<RunState> rs;
    {
      std::lock_guard<std::mutex> lock(reg->mu);
      while (!reg->active.empty()) {
        rs = reg->active.front();
        bool has_work;
        {
          std::lock_guard<std::mutex> rl(rs->mu);
          has_work = rs->next_morsel < rs->num_morsels;
        }
        if (has_work) break;
        reg->active.pop_front();
        rs.reset();
      }
    }
    if (rs == nullptr) return false;
    // A concurrent claimer may have taken the last morsel between the check
    // and the claim; loop so the exhausted run gets popped and the next one
    // tried, instead of reporting an empty registry early.
    if (ClaimAndRunOne(reg, rs)) return true;
  }
}

Status MorselScheduler::Run(size_t n, size_t grain,
                            const std::function<Status(size_t, size_t)>& fn) {
  if (n == 0) return Status::OK();
  if (grain == 0) grain = 1;
  size_t num_morsels = (n + grain - 1) / grain;
  reg_->runs.fetch_add(1, std::memory_order_relaxed);
  if (pool_ == nullptr || pool_->size() == 0 || num_morsels == 1) {
    for (size_t m = 0; m < num_morsels; ++m) {
      size_t begin = m * grain;
      reg_->executed.fetch_add(1, std::memory_order_relaxed);
      MPQ_RETURN_NOT_OK(fn(begin, std::min(begin + grain, n)));
    }
    return Status::OK();
  }

  auto rs = std::make_shared<RunState>();
  rs->n = n;
  rs->grain = grain;
  rs->num_morsels = num_morsels;
  rs->fn = fn;
  {
    std::lock_guard<std::mutex> lock(reg_->mu);
    reg_->active.push_back(rs);
  }
  uint64_t depth =
      reg_->pending.fetch_add(num_morsels, std::memory_order_relaxed) +
      num_morsels;
  uint64_t peak = reg_->peak.load(std::memory_order_relaxed);
  while (depth > peak &&
         !reg_->peak.compare_exchange_weak(peak, depth,
                                           std::memory_order_relaxed)) {
  }

  // Wake workers via pump tasks. Each pump drains the *global* FIFO, not
  // just this run — an idle worker woken for query A keeps helping query B
  // afterwards, which is what makes the queue shared. Submit may reject
  // during pool shutdown; that only costs parallelism, the caller loop
  // below claims every remaining morsel itself.
  auto reg = reg_;
  size_t num_helpers = std::min(pool_->size(), num_morsels - 1);
  for (size_t i = 0; i < num_helpers; ++i) {
    (void)pool_->Submit([reg] {
      while (PumpOne(reg)) {
      }
    });
  }

  // The caller claims its own morsels first (its run never starves), then
  // helps other runs' morsels while waiting. It deliberately does NOT run
  // arbitrary pool tasks here: this thread may hold an admission slot, and
  // an arbitrary task can be a whole other query (an async start or a
  // fragment of another DAG) that the slot would then wait out, nested
  // under this run. A morsel only ever waits on other morsels (a nested
  // Run), so pumping is always safe. The timed wait covers the race between
  // the final completion and this thread going to sleep.
  for (;;) {
    if (ClaimAndRunOne(reg_, rs)) continue;
    {
      std::lock_guard<std::mutex> lock(rs->mu);
      if (rs->morsels_done >= rs->num_morsels) break;
    }
    if (PumpOne(reg_)) continue;
    std::unique_lock<std::mutex> lock(rs->mu);
    rs->cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return rs->morsels_done >= rs->num_morsels;
    });
    if (rs->morsels_done >= rs->num_morsels) break;
  }

  std::lock_guard<std::mutex> lock(rs->mu);
  return rs->error_morsel == SIZE_MAX ? Status::OK() : rs->error;
}

Status RunMorsels(MorselScheduler* sched, size_t n, size_t grain,
                  const std::function<Status(size_t, size_t)>& fn) {
  if (sched != nullptr) return sched->Run(n, grain, fn);
  if (grain == 0) grain = 1;
  for (size_t begin = 0; begin < n; begin += grain) {
    MPQ_RETURN_NOT_OK(fn(begin, std::min(begin + grain, n)));
  }
  return Status::OK();
}

Status SharedScanManager::Scan(
    const void* id, size_t n, size_t grain,
    const std::function<Status(size_t, size_t, size_t)>& fn) {
  if (n == 0) return Status::OK();
  if (grain == 0) grain = 1;
  size_t num_batches = (n + grain - 1) / grain;

  Key key{id, n, grain};
  std::shared_ptr<ScanState> scan;
  auto self = std::make_shared<Participant>();
  self->fn = fn;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = active_.find(key);
    if (it != active_.end()) {
      std::lock_guard<std::mutex> sl(it->second->mu);
      // Attach only while batches remain unclaimed; a finished scan offers
      // nothing to share, so start a fresh one instead.
      if (it->second->next_batch < it->second->num_batches) {
        scan = it->second;
        self->first_batch = scan->next_batch;
        scan->parts.push_back(self);
        attaches_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (scan == nullptr) {
      scan = std::make_shared<ScanState>();
      scan->n = n;
      scan->grain = grain;
      scan->num_batches = num_batches;
      scan->held = hold_new_;
      scan->parts.push_back(self);
      active_[key] = scan;
      leader = true;
      leads_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // An attacher missed batches [0, first_batch) — the leader claimed them
  // before we existed. Catch up privately; these were scanned once already,
  // so they are the unshared part of the scan.
  for (size_t b = 0; b < self->first_batch; ++b) {
    size_t begin = b * grain;
    Status st = self->fn(b, begin, std::min(begin + grain, n));
    if (!st.ok()) {
      std::lock_guard<std::mutex> sl(scan->mu);
      if (b < self->error_batch) {
        self->error_batch = b;
        self->error = std::move(st);
      }
    }
  }

  if (leader) {
    // Test hook: park before the first claim so a test can deterministically
    // attach a second query. An attacher may run the whole scan (this
    // participant's callback included) and retire it while the leader is
    // parked — the release hook then cannot find the scan anymore, so the
    // completion notification must wake the leader too.
    std::unique_lock<std::mutex> sl(scan->mu);
    scan->cv.wait(sl, [&] {
      return !scan->held || scan->batches_done >= scan->num_batches;
    });
  }

  // Shared claim loop: claim a batch, snapshot the participant list, then
  // evaluate every eligible participant's callback against the hot batch.
  // Eligibility (first_batch <= b) keeps a late attacher from double-
  // evaluating a batch it also self-scans above.
  for (;;) {
    size_t b;
    std::vector<std::shared_ptr<Participant>> parts;
    {
      std::lock_guard<std::mutex> sl(scan->mu);
      if (scan->next_batch >= scan->num_batches) break;
      b = scan->next_batch++;
      parts = scan->parts;
    }
    size_t begin = b * grain;
    size_t end = std::min(begin + grain, n);
    size_t served = 0;
    for (auto& p : parts) {
      if (p->first_batch > b) continue;
      ++served;
      Status st = p->fn(b, begin, end);
      if (!st.ok()) {
        std::lock_guard<std::mutex> sl(scan->mu);
        if (b < p->error_batch) {
          p->error_batch = b;
          p->error = std::move(st);
        }
      }
    }
    if (served >= 2) shared_batches_.fetch_add(1, std::memory_order_relaxed);
    bool done;
    {
      std::lock_guard<std::mutex> sl(scan->mu);
      done = ++scan->batches_done == scan->num_batches;
      if (done) scan->cv.notify_all();
    }
    if (done) {
      // Last batch claimed and finished: retire the scan so the next query
      // over this payload starts a fresh (joinable) one.
      std::lock_guard<std::mutex> lock(mu_);
      auto it = active_.find(key);
      if (it != active_.end() && it->second == scan) active_.erase(it);
    }
  }

  // All batches claimed; wait for co-scanners still evaluating theirs. As
  // in MorselScheduler::Run, no arbitrary pool task runs here — this thread
  // holds an admission slot, and inlining another query's task under it
  // would hold the slot for that query's whole run. Co-scanners finish
  // their in-flight batch in bounded time, so a short timed wait is all
  // that is needed.
  for (;;) {
    {
      std::lock_guard<std::mutex> sl(scan->mu);
      if (scan->batches_done >= scan->num_batches) break;
    }
    std::unique_lock<std::mutex> sl(scan->mu);
    scan->cv.wait_for(sl, std::chrono::milliseconds(1), [&] {
      return scan->batches_done >= scan->num_batches;
    });
    if (scan->batches_done >= scan->num_batches) break;
  }

  std::lock_guard<std::mutex> sl(scan->mu);
  return self->error_batch == SIZE_MAX ? Status::OK() : self->error;
}

void SharedScanManager::HoldNewScansForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  hold_new_ = true;
}

void SharedScanManager::ReleaseHeldScansForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  hold_new_ = false;
  for (auto& kv : active_) {
    std::lock_guard<std::mutex> sl(kv.second->mu);
    kv.second->held = false;
    kv.second->cv.notify_all();
  }
}

}  // namespace mpq
