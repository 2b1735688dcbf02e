#include "mapreduce/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/thread_annotations.h"

namespace shadoop::mapreduce {
namespace {

/// CPUs the calling thread may run on: its affinity mask where the
/// platform exposes one, else the hardware thread count.
size_t CallerCpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

/// One multi-lane ParallelFor call. Indices are claimed from `next` and
/// counted in `done`, so the caller waits only for indices other threads
/// claimed, never for a worker that joined too late to claim one; such a
/// worker's reference keeps the batch alive after the caller returns.
/// `open_lanes` is guarded by Pool::mu_, which the analysis cannot name
/// from here. `done_mu` guards nothing: it orders the last finisher's
/// notify against the caller's check of `done`.
struct Batch {
  size_t n = 0;
  const std::function<void(size_t)>* fn = nullptr;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  int open_lanes = 0;  // Helper lanes no worker has taken yet.
  Mutex done_mu;
  std::condition_variable done_cv;
};

void RunIndices(Batch& batch) {
  for (size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
       i < batch.n; i = batch.next.fetch_add(1, std::memory_order_relaxed)) {
    (*batch.fn)(i);
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 == batch.n) {
      MutexLock lock(&batch.done_mu);
      batch.done_cv.notify_all();
    }
  }
}

class Pool {
 public:
  static Pool& Get() {
    static Pool pool(CallerCpus() - 1);
    return pool;
  }

  ~Pool() SHADOOP_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      stopping_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  size_t workers() const { return workers_.size(); }

  /// Queues a batch with `lanes - 1` helper lanes, wakes that many
  /// workers, runs the batch on the caller, removes it once every index
  /// is claimed and returns once every index has finished.
  void Run(size_t n, size_t lanes, const std::function<void(size_t)>& fn)
      SHADOOP_EXCLUDES(mu_) {
    auto batch = std::make_shared<Batch>();
    batch->n = n;
    batch->fn = &fn;
    batch->open_lanes = static_cast<int>(lanes - 1);
    {
      MutexLock lock(&mu_);
      queue_.push_back(batch);
    }
    for (size_t i = 1; i < lanes; ++i) wake_cv_.notify_one();
    RunIndices(*batch);
    {
      MutexLock lock(&mu_);
      queue_.erase(std::find(queue_.begin(), queue_.end(), batch));
    }
    MutexLock lock(&batch->done_mu);
    while (batch->done.load(std::memory_order_acquire) != n) {
      batch->done_cv.wait(lock.native());
    }
  }

 private:
  explicit Pool(size_t num_workers) {
    workers_.reserve(num_workers);
    for (size_t i = 0; i < num_workers; ++i) {
      workers_.emplace_back([this]() { WorkerLoop(); });
    }
  }

  /// The oldest queued batch with an unclaimed index and an open lane.
  std::shared_ptr<Batch> OldestOpenBatchLocked() SHADOOP_REQUIRES(mu_) {
    for (const std::shared_ptr<Batch>& batch : queue_) {
      if (batch->open_lanes > 0 &&
          batch->next.load(std::memory_order_relaxed) < batch->n) {
        return batch;
      }
    }
    return nullptr;
  }

  void WorkerLoop() SHADOOP_EXCLUDES(mu_) {
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        // An explicit wait loop (not a predicate lambda): the analysis
        // sees mu_ held across every access to the guarded members.
        MutexLock lock(&mu_);
        while (!stopping_ && (batch = OldestOpenBatchLocked()) == nullptr) {
          wake_cv_.wait(lock.native());
        }
        if (stopping_) return;
        --batch->open_lanes;
      }
      RunIndices(*batch);
    }
  }

  Mutex mu_;
  std::condition_variable wake_cv_;  // Idle workers wait here.
  std::deque<std::shared_ptr<Batch>> queue_ SHADOOP_GUARDED_BY(mu_);
  bool stopping_ SHADOOP_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // Fixed once constructed.
};

}  // namespace

void ParallelFor(size_t n, int max_lanes,
                 const std::function<void(size_t)>& fn) {
  size_t lanes = std::min(n, static_cast<size_t>(std::max(1, max_lanes)));
  if (lanes > 1) lanes = std::min(lanes, Pool::Get().workers() + 1);
  if (lanes > 1) lanes = std::min(lanes, CallerCpus());
  if (lanes <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Pool::Get().Run(n, lanes, fn);
}

}  // namespace shadoop::mapreduce
