#ifndef SHADOOP_TESTS_CPU_AFFINITY_H_
#define SHADOOP_TESTS_CPU_AFFINITY_H_

// A test chooses how many lanes ParallelFor gives its calls by narrowing
// its own thread's CPU affinity mask (mapreduce/thread_pool.h). The mask
// calls are Linux-only; the cases that narrow skip elsewhere.

#include <cstddef>

#ifdef __linux__
#include <sched.h>
#endif

#include "gtest/gtest.h"
#include "mapreduce/thread_pool.h"

namespace shadoop::testing {

#ifdef __linux__

inline constexpr bool kCanNarrowCpus = true;

/// CPUs in the calling thread's affinity mask.
inline size_t CallerCpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  return static_cast<size_t>(CPU_COUNT(&set));
}

/// Narrows the calling thread's affinity mask to the first `cpus` CPUs
/// of its current mask, and restores that mask on destruction. The pool
/// is started first, so its size follows the unnarrowed mask.
class ScopedCpus {
 public:
  explicit ScopedCpus(size_t cpus) {
    mapreduce::ParallelFor(2, 2, [](size_t) {});
    CPU_ZERO(&saved_);
    EXPECT_EQ(sched_getaffinity(0, sizeof(saved_), &saved_), 0);
    cpu_set_t narrowed;
    CPU_ZERO(&narrowed);
    size_t kept = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && kept < cpus; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &narrowed);
        ++kept;
      }
    }
    EXPECT_EQ(sched_setaffinity(0, sizeof(narrowed), &narrowed), 0);
  }
  ~ScopedCpus() { EXPECT_EQ(sched_setaffinity(0, sizeof(saved_), &saved_), 0); }
  ScopedCpus(const ScopedCpus&) = delete;
  ScopedCpus& operator=(const ScopedCpus&) = delete;

 private:
  cpu_set_t saved_;
};

#else

inline constexpr bool kCanNarrowCpus = false;
inline size_t CallerCpuCount() { return 1; }
class ScopedCpus {
 public:
  explicit ScopedCpus(size_t) {}
};

#endif

}  // namespace shadoop::testing

#endif  // SHADOOP_TESTS_CPU_AFFINITY_H_
