#ifndef SHADOOP_SERVER_RESULT_CACHE_H_
#define SHADOOP_SERVER_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fifo_cache.h"
#include "index/record_shape.h"
#include "mapreduce/job.h"

namespace shadoop::server {

/// One cached query result: the materialized rows plus the *simulated
/// charges* of the statement that produced them, as summed from zero in
/// that statement's own report. A cache hit must be indistinguishable from
/// a miss in every deterministic output — rows, JobCost, counters,
/// jobs_run — for the tenant that hits. So the entry stores the charges
/// without their admission wait (`admission_wait_ms`, `admission_queued`
/// and their counters, which came from the producer's ledger), plus each
/// job's simulated total_ms in order; a hit runs those jobs through the
/// requesting tenant's ledger to charge its own wait. Wall-clock time is
/// deliberately absent: saving it is the cache's entire point.
struct CachedResult {
  std::vector<std::string> lines;
  index::ShapeType shape = index::ShapeType::kPoint;
  mapreduce::JobCost cost;
  mapreduce::Counters counters;
  int jobs_run = 0;
  std::vector<double> job_ms;
};

/// Server-wide result/plan cache (DESIGN.md §14), shared by every
/// session. Keys are built by the query server from (normalized query
/// text, each source's catalog name + pinned version, the tenant's lane
/// share), so a version bump from `LOAD ... APPEND` or a `SET
/// snapshot_version` re-pin changes the key and invalidates naturally —
/// entries for old versions simply stop being looked up and age out of
/// the FIFO.
///
/// When two sessions race to execute the same query, both compute
/// identical results (same snapshot, same charges), and whichever Insert
/// lands first becomes the resident entry, so the cache's contents never
/// depend on the interleaving.
using ResultCache = FifoCache<CachedResult>;

inline constexpr size_t kResultCacheCapacity = 1024;

}  // namespace shadoop::server

#endif  // SHADOOP_SERVER_RESULT_CACHE_H_
