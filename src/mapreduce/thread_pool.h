#ifndef SHADOOP_MAPREDUCE_THREAD_POOL_H_
#define SHADOOP_MAPREDUCE_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace shadoop::mapreduce {

/// Runs fn(i) for every i in [0, n) and returns once all have finished.
/// This is the runtime's one way to run work in parallel: tasks, combine
/// and shuffle sort, partition encoding, and the query server's
/// concurrent streams.
///
/// Work runs on one process-wide pool of worker threads, started on first
/// use with one worker fewer than the CPUs in the first caller's affinity
/// mask (the caller is the last lane). A call uses at most
/// min(n, max_lanes, workers + 1, CPUs in the calling thread's affinity
/// mask) lanes, so narrowing a thread's mask narrows its calls, and a
/// one-lane call runs every index on the calling thread.
///
/// Concurrent and nested calls share the workers through one FIFO of
/// batches, and every caller runs its own batch as well. A caller claims
/// every index no worker took and waits only for indices other threads
/// are already running, so a nested call cannot deadlock. Which thread
/// runs which index depends on scheduling; callers keep per-index state,
/// so rows, counters and JobCost do not.
void ParallelFor(size_t n, int max_lanes,
                 const std::function<void(size_t)>& fn);

}  // namespace shadoop::mapreduce

#endif  // SHADOOP_MAPREDUCE_THREAD_POOL_H_
