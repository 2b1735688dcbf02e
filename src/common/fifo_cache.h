#ifndef SHADOOP_COMMON_FIFO_CACHE_H_
#define SHADOOP_COMMON_FIFO_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/thread_annotations.h"

namespace shadoop {

/// A bounded, thread-safe map from string keys to immutable shared values:
/// the runner's per-block artifact cache (mapreduce::ArtifactCache) and
/// the server's result cache (server::ResultCache).
///
/// Two ways in:
///  - GetOrBuild (artifacts) is single-flight: the first caller that
///    misses a key builds its value, and concurrent callers of that key
///    wait for that build instead of building their own.
///  - Lookup + Insert (results) lets racing callers each build; the first
///    inserter wins, so they converge on one resident instance. Callers
///    build equal values for equal keys, so which thread won never shows.
///
/// Past `capacity` entries the oldest insertion is evicted (FIFO). Values
/// are built *outside* the cache lock; Lookup and Insert are O(1) under
/// it.
template <typename T>
class FifoCache {
 public:
  using Ptr = std::shared_ptr<const T>;

  explicit FifoCache(size_t capacity) : capacity_(capacity) {}

  /// The cached value for `key`, or nullptr. Counts one hit or miss.
  Ptr Lookup(const std::string& key) const SHADOOP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    const auto it = map_.find(key);
    // Point lookup — no order observed.
    if (it == map_.end()) {  // lint:allow(unordered-iteration)
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }

  /// Inserts `value` if `key` is absent and returns the resident value.
  Ptr Insert(const std::string& key, Ptr value) SHADOOP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return InsertLocked(key, std::move(value));
  }

  /// The value for `key`: the resident one on a hit; otherwise the first
  /// caller runs `build()` outside the lock and inserts its result, while
  /// concurrent callers of the same key block until that build finishes
  /// and return its value. A build reports failure by returning null,
  /// which is not cached: that build's waiters get null too, and the
  /// next call builds again. The building call counts the miss and every
  /// other call a hit, so misses() equals the number of builds.
  ///
  /// A waiter blocks its thread — on the runner, a pool lane. That is
  /// safe while callers keep two invariants: a build never submits pool
  /// work, and a build waits only on the build of another kind of value
  /// (the record reader's envelope column waits on its polygon or point
  /// column, never the reverse), so waits cannot form a cycle.
  template <typename Build>
  Ptr GetOrBuild(const std::string& key, Build build) SHADOOP_EXCLUDES(mu_) {
    std::shared_ptr<Flight> flight;
    {
      MutexLock lock(&mu_);
      const auto it = map_.find(key);
      // Point lookups — no order observed.
      if (it != map_.end()) {  // lint:allow(unordered-iteration)
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
      auto [slot, first] = in_flight_.try_emplace(key);
      if (!first) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        flight = slot->second;
        flight->cv.wait(lock.native(), [&] { return flight->done; });
        return flight->value;
      }
      misses_.fetch_add(1, std::memory_order_relaxed);
      flight = slot->second = std::make_shared<Flight>();
    }
    Ptr value = build();
    {
      MutexLock lock(&mu_);
      if (value != nullptr) value = InsertLocked(key, std::move(value));
      flight->value = value;
      flight->done = true;
      in_flight_.erase(key);
    }
    flight->cv.notify_all();
    return value;
  }

  size_t size() const SHADOOP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return map_.size();
  }

  /// Lifetime outcomes of Lookup() and GetOrBuild(). These are host
  /// telemetry, not deterministic output: two Lookup() callers that miss
  /// one key before either inserts it both count a miss, so the split
  /// depends on thread interleaving. Through GetOrBuild() alone, misses
  /// count builds.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  /// One in-progress GetOrBuild() build. Fields are guarded by the
  /// cache's mu_, which `cv` waits on.
  struct Flight {
    bool done = false;
    Ptr value;
    std::condition_variable cv;
  };

  Ptr InsertLocked(const std::string& key, Ptr value) SHADOOP_REQUIRES(mu_) {
    const auto [it, inserted] = map_.emplace(key, std::move(value));
    Ptr resident = it->second;  // Taken before eviction can touch `it`.
    if (inserted) {
      fifo_.push_back(key);
      while (fifo_.size() > capacity_) {
        map_.erase(fifo_.front());
        fifo_.pop_front();
      }
    }
    return resident;
  }

  const size_t capacity_;
  mutable Mutex mu_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::unordered_map<std::string, Ptr> map_ SHADOOP_GUARDED_BY(mu_);
  std::deque<std::string> fifo_ SHADOOP_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::shared_ptr<Flight>> in_flight_
      SHADOOP_GUARDED_BY(mu_);
};

}  // namespace shadoop

#endif  // SHADOOP_COMMON_FIFO_CACHE_H_
