#include "common/thread_pool.h"

namespace mpq {

namespace {
/// Index of the worker the current thread is, or SIZE_MAX off-pool. Set once
/// per worker thread at startup; identifies the deque Submit should use.
thread_local size_t tls_worker_id = SIZE_MAX;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  queues_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkQueue>());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  accepting_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Drain: a task accepted during shutdown (e.g. submitted by a worker that
  // was mid-task when stop_ was set) may still sit in a queue after the
  // workers exited. Close each queue under its mutex — any Submit racing the
  // drain then rejects instead of stranding work — and run the leftovers on
  // this thread, so every accepted task executes exactly once. Tasks that
  // re-submit during the drain land in a not-yet-closed queue (and get
  // drained in turn) or are rejected; either way nothing dangles.
  for (auto& q : queues_) {
    std::deque<std::function<void()>> leftover;
    {
      std::lock_guard<std::mutex> lock(q->mu);
      q->closed = true;
      leftover.swap(q->tasks);
    }
    for (auto& task : leftover) task();
  }
}

bool ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return true;
  }
  if (!accepting_.load(std::memory_order_acquire)) return false;
  size_t q = tls_worker_id;
  if (q >= queues_.size()) {
    q = next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mu);
    if (queues_[q]->closed) return false;
    queues_[q]->tasks.push_back(std::move(task));
  }
  // The bump happens under wake_mu_, the mutex WorkerLoop holds while it
  // tests its wait predicate. Unlocked, it could land between a worker's
  // test (pending_ == 0) and its block inside wait(), and the notify below
  // would then find no waiter: the worker sleeps with a task queued, and
  // with no caller helping, that task never runs. Under the mutex the bump
  // comes either before the test, which then sees it, or after the worker
  // has atomically released the mutex and blocked, which the notify wakes.
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    pending_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_one();
  return true;
}

bool ThreadPool::PopTask(size_t preferred, std::function<void()>* out) {
  size_t n = queues_.size();
  if (n == 0) return false;
  // Own queue LIFO first, then steal FIFO round-robin from siblings.
  if (preferred < n) {
    std::lock_guard<std::mutex> lock(queues_[preferred]->mu);
    if (!queues_[preferred]->tasks.empty()) {
      *out = std::move(queues_[preferred]->tasks.back());
      queues_[preferred]->tasks.pop_back();
      return true;
    }
  }
  size_t start = preferred < n ? preferred + 1 : 0;
  for (size_t k = 0; k < n; ++k) {
    size_t i = (start + k) % n;
    if (i == preferred) continue;
    std::lock_guard<std::mutex> lock(queues_[i]->mu);
    if (!queues_[i]->tasks.empty()) {
      *out = std::move(queues_[i]->tasks.front());
      queues_[i]->tasks.pop_front();
      return true;
    }
  }
  return false;
}

bool ThreadPool::TryRunOneTask() {
  std::function<void()> task;
  if (!PopTask(tls_worker_id, &task)) return false;
  pending_.fetch_sub(1, std::memory_order_relaxed);
  task();
  return true;
}

void ThreadPool::WorkerLoop(size_t id) {
  tls_worker_id = id;
  for (;;) {
    std::function<void()> task;
    if (PopTask(id, &task)) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    if (stop_) return;
    if (pending_.load(std::memory_order_acquire) > 0) continue;
    wake_cv_.wait(lock, [this] {
      return stop_ || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_) return;
  }
}

}  // namespace mpq
