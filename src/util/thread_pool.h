// Minimal fixed-size thread pool for bulk-synchronous fork-join jobs.
//
// The solver work-loops are bulk-synchronous: each round produces a batch of
// independent pricing evaluations whose results must be gathered in a fixed
// order. ParallelFor hands out indices through an atomic counter (dynamic
// load balancing — candidate costs vary wildly with audience size) while the
// caller writes results into pre-sized slots indexed by `index`, so the
// gathered output is independent of thread scheduling and bit-identical to a
// serial run.
//
// Multi-job contract: any number of threads may call ParallelFor on one pool
// at once. Each call is its own job with its own index counter; the pool
// queues jobs FIFO and idle workers join the oldest job that still has
// indices left, while every caller drains its own job. Jobs therefore
// overlap instead of queueing behind each other, and a caller never waits
// for another caller's work. `slot` is unique among the threads running one
// job at the same time — the only guarantee per-thread workspaces need.

#ifndef BUNDLEMINE_UTIL_THREAD_POOL_H_
#define BUNDLEMINE_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace bundlemine {

/// Fixed set of worker threads executing fork-join jobs, shared by any
/// number of concurrent callers. Construction with `num_threads <= 1`
/// creates no workers; every job then runs inline on the calling thread,
/// which keeps the serial path free of synchronization.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 when the pool runs inline).
  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Worker-slot count for per-thread scratch: the workers plus the calling
  /// thread, which participates in every job it submits.
  int num_slots() const { return num_workers() + 1; }

  /// Runs fn(index, slot) for every index in [0, n), distributing indices
  /// across the calling thread and whichever workers are free; blocks until
  /// all complete. `slot` ∈ [0, num_slots()) identifies the executing thread
  /// and no two threads run under the same slot within one call — callers
  /// use it to index per-thread workspaces. The caller is always slot 0.
  /// `fn` must be safe to invoke concurrently for distinct indices. Safe to
  /// call from several threads at once.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t index, int slot)>& fn)
      EXCLUDES(mu_);

 private:
  /// One ParallelFor call. Lives on the caller's stack; the caller unlinks
  /// it from `jobs_` and waits for `active` to reach 0 before returning, so
  /// no worker holds a pointer to a finished job.
  struct Job {
    Job(std::size_t n, const std::function<void(std::size_t, int)>& fn)
        : n(n), fn(fn) {}
    /// Runs indices from `next` until they run out.
    void Drain(int slot);

    const std::size_t n;
    const std::function<void(std::size_t, int)>& fn;
    std::atomic<std::size_t> next{0};
    /// Workers currently inside Drain. Guarded by the owning pool's `mu_`
    /// (a member of another object, so it cannot carry GUARDED_BY); only
    /// touched in ThreadPool code that holds that lock.
    int active = 0;
    /// Signalled, with the pool's `mu_` held, when `active` drops to 0.
    CondVar done;
  };

  void WorkerLoop(int slot) EXCLUDES(mu_);
  /// The oldest queued job with indices left, popping exhausted ones; null
  /// when there is none.
  Job* NextJob() REQUIRES(mu_);

  Mutex mu_;
  CondVar work_cv_;
  /// Jobs that may still have unclaimed indices, oldest first.
  std::deque<Job*> jobs_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_UTIL_THREAD_POOL_H_
