#include "util/thread_pool.h"

#include <algorithm>

namespace bundlemine {

ThreadPool::ThreadPool(int num_threads) {
  int workers = num_threads - 1;  // The calling thread is slot 0.
  if (workers < 0) workers = 0;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    // Worker slots start at 1; slot 0 is the calling thread.
    workers_.emplace_back([this, slot = i + 1] { WorkerLoop(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Job::Drain(int slot) {
  for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
    fn(i, slot);
  }
}

ThreadPool::Job* ThreadPool::NextJob() {
  while (!jobs_.empty()) {
    Job* front = jobs_.front();
    if (front->next.load(std::memory_order_relaxed) < front->n) return front;
    jobs_.pop_front();  // Exhausted: its remaining indices are in flight.
  }
  return nullptr;
}

void ThreadPool::WorkerLoop(int slot) {
  Job* job = nullptr;
  while (true) {
    {
      MutexLock lock(mu_);
      if (job != nullptr && --job->active == 0) job->done.NotifyAll();
      while ((job = NextJob()) == nullptr) {
        if (shutdown_) return;
        work_cv_.Wait(mu_);
      }
      ++job->active;
    }
    job->Drain(slot);
  }
}

void ThreadPool::ParallelFor(
    std::size_t n, const std::function<void(std::size_t, int)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }

  Job job(n, fn);
  {
    MutexLock lock(mu_);
    jobs_.push_back(&job);
  }
  work_cv_.NotifyAll();
  job.Drain(0);  // The calling thread participates as slot 0.
  MutexLock lock(mu_);
  // Unlink the job (a worker may already have popped it) so no worker can
  // join it any more, then wait out the workers still inside.
  auto it = std::find(jobs_.begin(), jobs_.end(), &job);
  if (it != jobs_.end()) jobs_.erase(it);
  while (job.active != 0) job.done.Wait(mu_);
}

}  // namespace bundlemine
