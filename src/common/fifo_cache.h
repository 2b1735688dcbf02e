#ifndef SHADOOP_COMMON_FIFO_CACHE_H_
#define SHADOOP_COMMON_FIFO_CACHE_H_

#include <atomic>
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
/// The first inserter wins, so concurrent builders of one key converge on
/// one resident instance; callers build equal values for equal keys, so
/// which thread won never shows. Past `capacity` entries the oldest
/// insertion is evicted (FIFO). Build values *outside* any call into the
/// cache; Lookup and Insert are O(1) under the lock.
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

  size_t size() const SHADOOP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return map_.size();
  }

  /// Lifetime Lookup() outcomes. These are host telemetry, not
  /// deterministic output: two tasks that miss one key before either
  /// inserts it both count a miss, so the split depends on thread
  /// interleaving.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::unordered_map<std::string, Ptr> map_ SHADOOP_GUARDED_BY(mu_);
  std::deque<std::string> fifo_ SHADOOP_GUARDED_BY(mu_);
};

}  // namespace shadoop

#endif  // SHADOOP_COMMON_FIFO_CACHE_H_
