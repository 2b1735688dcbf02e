#ifndef SHADOOP_MAPREDUCE_ARTIFACT_CACHE_H_
#define SHADOOP_MAPREDUCE_ARTIFACT_CACHE_H_

#include <cstddef>

#include "common/fifo_cache.h"

namespace shadoop::mapreduce {

/// Process-wide cache of immutable artifacts derived from a block's bytes
/// — record indexes (the runner's `rec:<block id>`, hdfs::RecordIndex),
/// decoded local-index headers, parsed geometry columns and packed local
/// R-trees (core::SpatialRecordReader), the index builder's source
/// envelopes (`ienv:<shape>:<block id>`) — shared across the map tasks
/// of every job a runner executes.
/// Builds are single-flight (FifoCache::GetOrBuild): tasks that miss one
/// key at the same time wait for one build, so a cold job builds each
/// artifact of a block once.
///
/// Keys embed the HDFS BlockId, which is globally unique and never
/// reused (Replace/Append allocate fresh ids), so a hit can only return
/// an artifact built from exactly the bytes the task would have parsed.
/// Values are type-erased shared_ptrs: the caller that built the
/// artifact knows its concrete type, and entries own their data (no
/// views into block payloads), so the cache never pins block bytes.
///
/// The cache is strictly a wall-clock optimization: consumers must
/// charge the simulated cost model identically on hit and miss, and the
/// runner disables it entirely while any fault injector is active so
/// injected corruption or failover is never masked by a pre-fault
/// artifact.
using ArtifactCache = FifoCache<void>;

inline constexpr size_t kArtifactCacheCapacity = 4096;

}  // namespace shadoop::mapreduce

#endif  // SHADOOP_MAPREDUCE_ARTIFACT_CACHE_H_
