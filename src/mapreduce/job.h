#ifndef SHADOOP_MAPREDUCE_JOB_H_
#define SHADOOP_MAPREDUCE_JOB_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace shadoop::mapreduce {

class ArtifactCache;

/// One intermediate key-value pair. Keys and values are text, in the
/// spirit of Hadoop streaming: every operation defines its own record
/// encodings on top (typically CSV or WKT, see geometry/wkt.h).
struct KeyValue {
  std::string key;
  std::string value;

  friend bool operator<(const KeyValue& a, const KeyValue& b) {
    return a.key < b.key || (a.key == b.key && a.value < b.value);
  }
  friend bool operator==(const KeyValue& a, const KeyValue& b) {
    return a.key == b.key && a.value == b.value;
  }
};

/// Reference to one stored block of an input file.
struct BlockRef {
  std::string path;
  size_t block_index = 0;
};

/// Unit of work for one map task. A split normally covers one block; some
/// spatial operations (e.g. farthest pair) build splits that cover a
/// *pair* of partitions, hence the vector. `meta` carries operation
/// defined context — for spatially partitioned files it is the partition
/// MBR in CSV form, so the map function knows its cell boundaries.
struct InputSplit {
  std::vector<BlockRef> blocks;
  std::string meta;
  size_t estimated_bytes = 0;
  size_t estimated_records = 0;
};

/// Thread-compatible counter set; each task accumulates locally and the
/// runner merges after the phase, so no locking is needed in user code.
class Counters {
 public:
  /// Heterogeneous lookup (std::less<> map): incrementing with a string
  /// literal or string_view allocates only when the counter is first seen.
  void Increment(std::string_view name, int64_t delta = 1) {
    auto it = values_.find(name);
    if (it == values_.end()) {
      values_.emplace(std::string(name), delta);
    } else {
      it->second += delta;
    }
  }
  int64_t Get(std::string_view name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }
  void MergeFrom(const Counters& other) {
    for (const auto& [name, value] : other.values_) Increment(name, value);
  }
  const std::map<std::string, int64_t, std::less<>>& values() const {
    return values_;
  }

 private:
  std::map<std::string, int64_t, std::less<>> values_;
};

/// Context handed to map tasks. Emit() feeds the shuffle; WriteOutput()
/// bypasses the shuffle and appends to the job's final output — this is
/// how SpatialHadoop's pruning steps "early flush" final results from the
/// map side. ChargeCpu() lets algorithms report super-linear work to the
/// simulated-time model.
class MapContext {
 public:
  virtual ~MapContext() = default;

  /// Key/value bytes are copied into the task's shuffle buffer before the
  /// call returns, so views into short-lived storage are fine.
  virtual void Emit(std::string_view key, std::string_view value) = 0;
  virtual void WriteOutput(std::string_view line) = 0;
  virtual void ChargeCpu(uint64_t ops) = 0;
  virtual Counters& counters() = 0;
  /// The split being processed (access to `meta`).
  virtual const InputSplit& split() const = 0;
  /// Marks the task (and hence the job) failed; record processing stops
  /// after the current record. For data errors the job must not ignore.
  virtual void Fail(Status status) = 0;

  /// Runner-wide cache of immutable per-block artifacts (see
  /// artifact_cache.h), or null when caching is unavailable — fault
  /// injection active, or a context outside the job runner. Hits must
  /// only save wall-clock time, never change simulated charges, output
  /// or counters.
  virtual ArtifactCache* artifact_cache() { return nullptr; }

  /// Globally unique immutable id of the split's `ordinal`-th block
  /// (hdfs::BlockId), or 0 when unknown. Safe as a cache key: rewritten
  /// files get fresh ids, so a stale artifact can never alias new bytes.
  virtual uint64_t block_cache_id(size_t ordinal) const {
    (void)ordinal;
    return 0;
  }
};

/// Context handed to reduce tasks.
class ReduceContext {
 public:
  virtual ~ReduceContext() = default;

  virtual void Write(std::string line) = 0;
  virtual void ChargeCpu(uint64_t ops) = 0;
  virtual Counters& counters() = 0;
  /// Marks the task (and hence the job) failed.
  virtual void Fail(Status status) = 0;
};

/// User map function. One instance is created per map task (so instances
/// may keep per-split state without locking). BeginSplit/EndSplit bracket
/// the records of the split; whole-partition algorithms buffer in Map()
/// and compute in EndSplit().
class Mapper {
 public:
  virtual ~Mapper() = default;

  virtual void BeginSplit(MapContext& ctx) { (void)ctx; }
  /// Called before the records of the split's `ordinal`-th block; lets
  /// multi-block splits (partition pairs) tell their inputs apart.
  virtual void BeginBlock(size_t ordinal, MapContext& ctx) {
    (void)ordinal;
    (void)ctx;
  }
  /// `record` is a zero-copy view into the block being read; it stays
  /// valid until EndSplit() returns (the runner pins the block's bytes
  /// for the whole task attempt), so mappers may buffer views across
  /// Map() calls. Anything that must outlive the task — Emit(),
  /// WriteOutput() — is copied by the context.
  virtual void Map(std::string_view record, MapContext& ctx) = 0;
  virtual void EndSplit(MapContext& ctx) { (void)ctx; }
};

/// User reduce function. Also used for combiners (map-side pre-reduce);
/// a combiner's Write() re-emits under the group key instead of writing
/// final output.
class Reducer {
 public:
  virtual ~Reducer() = default;

  virtual void Reduce(const std::string& key,
                      const std::vector<std::string>& values,
                      ReduceContext& ctx) = 0;

  /// Called once after the last group of the task; reducers that combine
  /// state across keys write their final answer here.
  virtual void Finish(ReduceContext& ctx) { (void)ctx; }
};

using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;

/// Routes an intermediate key to a reduce task in [0, num_reducers).
using Partitioner = std::function<int(std::string_view key, int num_reducers)>;

/// Full specification of one MapReduce job.
struct JobConfig {
  std::string name = "job";
  std::vector<InputSplit> splits;
  MapperFactory mapper;
  ReducerFactory combiner;  // Optional.
  ReducerFactory reducer;   // Optional: absent means a map-only job.
  Partitioner partitioner;  // Optional: defaults to hash(key) % R.
  int num_reducers = 1;
  /// When non-empty, the output lines are also written as an HDFS file.
  std::string output_path;
};

/// Deterministic simulated-cost breakdown of a finished job (see
/// DESIGN.md §5). All times in milliseconds of simulated cluster time.
struct JobCost {
  double total_ms = 0;
  double map_makespan_ms = 0;
  double shuffle_ms = 0;
  double reduce_makespan_ms = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_shuffled = 0;
  uint64_t bytes_written = 0;
  int num_map_tasks = 0;
  int num_reduce_tasks = 0;

  // Fault-tolerance counters (all zero on a fault-free run; retries,
  // backoff waits and straggler delays also inflate the makespans above).
  int64_t task_retries = 0;
  int64_t speculative_launched = 0;
  int64_t speculative_won = 0;
  int64_t replica_failovers = 0;

  // Multi-tenant admission counters (all zero without an admission
  // controller, or when the job never waited — see DESIGN.md §10).
  int64_t admission_queued = 0;       // 1 when this job queued for a slot.
  double admission_wait_ms = 0;       // Simulated queue wait.
  int64_t admission_preempted_specs = 0;  // Backups denied by the quota.

  /// Field-wise sum: folds one job's (or one statement's) charges into a
  /// running total.
  JobCost& operator+=(const JobCost& other) {
    total_ms += other.total_ms;
    map_makespan_ms += other.map_makespan_ms;
    shuffle_ms += other.shuffle_ms;
    reduce_makespan_ms += other.reduce_makespan_ms;
    bytes_read += other.bytes_read;
    bytes_shuffled += other.bytes_shuffled;
    bytes_written += other.bytes_written;
    num_map_tasks += other.num_map_tasks;
    num_reduce_tasks += other.num_reduce_tasks;
    task_retries += other.task_retries;
    speculative_launched += other.speculative_launched;
    speculative_won += other.speculative_won;
    replica_failovers += other.replica_failovers;
    admission_queued += other.admission_queued;
    admission_wait_ms += other.admission_wait_ms;
    admission_preempted_specs += other.admission_preempted_specs;
    return *this;
  }

  /// Field-wise difference `after - before` of two running totals: the
  /// charges accrued in between. Charges only accumulate, so every field
  /// of the result is non-negative.
  friend JobCost operator-(const JobCost& after, const JobCost& before) {
    JobCost d;
    d.total_ms = after.total_ms - before.total_ms;
    d.map_makespan_ms = after.map_makespan_ms - before.map_makespan_ms;
    d.shuffle_ms = after.shuffle_ms - before.shuffle_ms;
    d.reduce_makespan_ms = after.reduce_makespan_ms - before.reduce_makespan_ms;
    d.bytes_read = after.bytes_read - before.bytes_read;
    d.bytes_shuffled = after.bytes_shuffled - before.bytes_shuffled;
    d.bytes_written = after.bytes_written - before.bytes_written;
    d.num_map_tasks = after.num_map_tasks - before.num_map_tasks;
    d.num_reduce_tasks = after.num_reduce_tasks - before.num_reduce_tasks;
    d.task_retries = after.task_retries - before.task_retries;
    d.speculative_launched =
        after.speculative_launched - before.speculative_launched;
    d.speculative_won = after.speculative_won - before.speculative_won;
    d.replica_failovers = after.replica_failovers - before.replica_failovers;
    d.admission_queued = after.admission_queued - before.admission_queued;
    d.admission_wait_ms = after.admission_wait_ms - before.admission_wait_ms;
    d.admission_preempted_specs =
        after.admission_preempted_specs - before.admission_preempted_specs;
    return d;
  }
};

struct JobResult {
  Status status;
  Counters counters;
  JobCost cost;
  double wall_ms = 0;
  /// Final output lines in deterministic order (map-task order for
  /// map-side writes, then reduce-task order).
  std::vector<std::string> output;
};

}  // namespace shadoop::mapreduce

#endif  // SHADOOP_MAPREDUCE_JOB_H_
