// A small work-stealing thread pool.
//
// Each worker owns a deque: it pops its own work LIFO (cache locality) and
// steals FIFO from siblings when empty. Threads that must block on pool work
// (fragment-DAG drains, future waiters) never idle — they run queued tasks
// while waiting, which makes nested submission from inside pool tasks
// deadlock-free at any pool size. Deterministic data-parallel loops go
// through exec/morsel.h's MorselScheduler, which runs on top of this pool.

#ifndef MPQ_COMMON_THREAD_POOL_H_
#define MPQ_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mpq {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 makes every Submit run inline.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues `task`. From a worker thread, pushes onto that worker's own
  /// deque (stolen by siblings when they run dry); otherwise round-robins.
  /// With zero workers the task runs inline. Returns whether the task was
  /// accepted: once destruction begins, Submit rejects (returns false)
  /// instead of enqueueing work that would never run — every task Submit
  /// accepted is guaranteed to execute, even those enqueued by in-flight
  /// workers during shutdown (the destructor drains stragglers inline).
  bool Submit(std::function<void()> task);

  /// Runs one queued task on the calling thread, if any. Returns whether a
  /// task was run. Blocking waiters call this in a loop to keep making
  /// progress instead of idling.
  bool TryRunOneTask();

 private:
  struct WorkQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
    /// Set (under `mu`) by the destructor right before it drains this queue;
    /// a Submit that lost the race to the drain sees it and rejects instead
    /// of stranding a task in a queue nothing will ever pop again.
    bool closed = false;
  };

  void WorkerLoop(size_t id);
  bool PopTask(size_t preferred, std::function<void()>* out);

  std::vector<std::unique_ptr<WorkQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_ = false;  // guarded by wake_mu_
  /// Fast-path shutdown gate checked by Submit before touching any queue.
  std::atomic<bool> accepting_{true};
  std::atomic<size_t> next_queue_{0};
  std::atomic<size_t> pending_{0};
};

}  // namespace mpq

#endif  // MPQ_COMMON_THREAD_POOL_H_
