#include "mapreduce/job_runner.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "fault/fault_injector.h"
#include "hdfs/block_arena.h"
#include "mapreduce/shuffle_sort.h"
#include "mapreduce/task_scheduler.h"
#include "mapreduce/thread_pool.h"

namespace shadoop::mapreduce {
namespace {

/// Per-task accounting shared by both context implementations.
struct TaskAccounting {
  Counters counters;
  uint64_t charged_cpu_ops = 0;
  uint64_t records_processed = 0;
  Status status;  // First failure reported by user code.
};

/// One emitted pair, stored as offsets into the owning task's shuffle
/// buffer instead of a pair of owned strings.
struct EmitSlice {
  uint64_t offset = 0;
  uint32_t key_len = 0;
  uint32_t value_len = 0;
};

/// Appends a pair to a task's shuffle buffer as ShuffleRef reads it: the
/// key, the value, the attachment's length byte and the attachment.
EmitSlice AppendPair(std::string* buffer, std::string_view key,
                     std::string_view value, std::string_view attachment) {
  const EmitSlice slice{buffer->size(), static_cast<uint32_t>(key.size()),
                        static_cast<uint32_t>(value.size())};
  buffer->append(key);
  buffer->append(value);
  buffer->push_back(static_cast<char>(attachment.size()));
  buffer->append(attachment);
  return slice;
}

class MapContextImpl : public MapContext {
 public:
  MapContextImpl(const InputSplit& split, int num_reducers)
      : split_(split), emitted_(std::max(1, num_reducers)) {}

  void Emit(std::string_view key, std::string_view value,
            std::string_view attachment) override {
    if (attachment.size() > 255) {
      return Fail(Status::InvalidArgument("attachment over 255 bytes"));
    }
    const int bucket =
        partition_ ? partition_(key, static_cast<int>(emitted_.size()))
                   : HashPartition(key, static_cast<int>(emitted_.size()));
    emitted_bytes_ += key.size() + value.size();
    emitted_[bucket].push_back(AppendPair(&buffer_, key, value, attachment));
  }

  void WriteOutput(std::string line) override {
    output_bytes_ += line.size() + 1;
    output_.push_back(std::move(line));
  }

  void ChargeCpu(uint64_t ops) override { acct_.charged_cpu_ops += ops; }

  Counters& counters() override { return acct_.counters; }
  const InputSplit& split() const override { return split_; }
  void Fail(Status status) override {
    if (acct_.status.ok()) acct_.status = std::move(status);
  }
  bool failed() const override { return !acct_.status.ok(); }

  void set_partitioner(const Partitioner& p) { partition_ = p; }

  ArtifactCache* artifact_cache() override { return cache_; }
  uint64_t block_cache_id(size_t ordinal) const override {
    return ordinal < block_ids_.size() ? block_ids_[ordinal] : 0;
  }
  void set_artifact_cache(ArtifactCache* cache,
                          std::vector<uint64_t> block_ids) {
    cache_ = cache;
    block_ids_ = std::move(block_ids);
  }

  const InputSplit& split_;  // Dangles once the job returns; unused then.
  Partitioner partition_;
  ArtifactCache* cache_ = nullptr;
  std::vector<uint64_t> block_ids_;  // Per split ordinal; 0 = unknown.
  std::string buffer_;  // Every emitted pair's bytes; fixed once gathered.
  std::vector<std::vector<EmitSlice>> emitted_;  // One bucket per reducer.
  std::vector<std::string> output_;              // Map-side final output.
  uint64_t emitted_bytes_ = 0;
  uint64_t output_bytes_ = 0;
  uint64_t bytes_read_ = 0;
  TaskAccounting acct_;
};

class ReduceContextImpl : public ReduceContext {
 public:
  void Write(std::string line) override {
    output_bytes_ += line.size() + 1;
    output_.push_back(std::move(line));
  }
  // Charged as Write() of "key<TAB>value", or of `value` for an empty key.
  void WriteGroup() override {
    for (const ShuffleRef& ref : group_) {
      output_bytes_ +=
          (ref.key_len == 0 ? 0 : ref.key_len + 1) + ref.value_len + 1;
    }
    rows_.insert(rows_.end(), group_.begin(), group_.end());
  }
  void ChargeCpu(uint64_t ops) override { acct_.charged_cpu_ops += ops; }
  Counters& counters() override { return acct_.counters; }
  void Fail(Status status) override {
    if (acct_.status.ok()) acct_.status = std::move(status);
  }

  std::vector<std::string> output_;
  std::span<const ShuffleRef> group_;  // The group being reduced, if any.
  std::vector<ShuffleRef> rows_;       // Written with WriteGroup().
  uint64_t output_bytes_ = 0;
  TaskAccounting acct_;
};

/// Combiner context: Write() re-emits the line under the current group
/// key, into the task's new shuffle buffer, instead of final output.
class CombineContextImpl : public ReduceContext {
 public:
  explicit CombineContextImpl(TaskAccounting* acct) : acct_(acct) {}

  void Write(std::string line) override {
    bucket_->push_back(AppendPair(&buffer_, key_, line, {}));
    bytes_ += key_.size() + line.size();
  }
  void WriteGroup() override {
    Fail(Status::InvalidArgument(
        "a combiner re-emits with Write(); WriteGroup() writes job output"));
  }
  void ChargeCpu(uint64_t ops) override { acct_->charged_cpu_ops += ops; }
  Counters& counters() override { return acct_->counters; }
  void Fail(Status status) override {
    if (acct_->status.ok()) acct_->status = std::move(status);
  }

  std::string_view key_;  // The current group's key, in the old buffer.
  std::vector<EmitSlice>* bucket_ = nullptr;  // Where Write() appends.
  std::string buffer_;  // The task's new shuffle buffer.
  uint64_t bytes_ = 0;
  TaskAccounting* acct_;
};

/// Calls `group(refs, values)` once per run of equal keys in the sorted
/// `pairs`: `refs` is the run, `values` its values as views into the map
/// buffers, gathered into one vector that every group reuses.
template <typename Group>
void ForEachGroup(const std::vector<ShuffleRef>& pairs, Group group) {
  std::vector<std::string_view> values;
  for (size_t i = 0, j = 0; i < pairs.size(); i = j) {
    values.clear();
    for (j = i; j < pairs.size() && pairs[j].key() == pairs[i].key(); ++j) {
      values.push_back(pairs[j].value());
    }
    group(std::span<const ShuffleRef>(pairs).subspan(i, j - i),
          std::span<const std::string_view>(values));
  }
}

/// Invokes the reducer once per group of a sorted run, each group handed
/// to the context for WriteGroup(), then Finish().
void ReduceSortedRun(const std::vector<ShuffleRef>& pairs, Reducer& reducer,
                     ReduceContextImpl& ctx) {
  ForEachGroup(pairs, [&](std::span<const ShuffleRef> refs,
                          std::span<const std::string_view> values) {
    ctx.group_ = refs;
    reducer.Reduce(refs.front().key(), values, ctx);
  });
  ctx.group_ = {};
  reducer.Finish(ctx);
}

/// The record index of one block payload. With the artifact cache on and
/// the block id known, it is built once per runner and shared: tasks that
/// read the block at the same time wait for one build. Otherwise the
/// attempt builds it and drops it.
Result<std::shared_ptr<const hdfs::RecordIndex>> IndexRecords(
    ArtifactCache* cache, uint64_t block_id, std::string_view payload) {
  SHADOOP_RETURN_NOT_OK(hdfs::RecordIndex::CheckIndexable(payload));
  auto build = [payload] {
    return std::make_shared<const hdfs::RecordIndex>(
        hdfs::RecordIndex::Build(payload));
  };
  if (cache == nullptr || block_id == 0) return build();
  return std::static_pointer_cast<const hdfs::RecordIndex>(
      cache->GetOrBuild("rec:" + std::to_string(block_id), build));
}

double CpuMs(const ClusterConfig& cfg, const TaskAccounting& acct) {
  const double ops = static_cast<double>(acct.charged_cpu_ops) +
                     static_cast<double>(acct.records_processed) *
                         cfg.ops_per_record;
  return ops / cfg.cpu_ops_per_ms;
}

TaskSchedulerOptions SchedulerOptions(const JobConfig& job,
                                      const ClusterConfig& cluster,
                                      fault::TaskKind kind, int max_attempts,
                                      bool backups_fit) {
  TaskSchedulerOptions options;
  options.job_name = job.name;
  options.kind = kind;
  options.max_task_attempts = max_attempts;
  options.task_startup_ms = cluster.task_startup_ms;
  options.retry_backoff_ms = cluster.retry_backoff_ms;
  options.speculative_slack_ms = cluster.speculative_slack_ms;
  options.backups_fit = backups_fit;
  return options;
}

}  // namespace

int HashPartition(std::string_view key, int num_reducers) {
  uint64_t hash = 14695981039346656037ULL;
  for (char c : key) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return static_cast<int>(hash % static_cast<uint64_t>(
                                     std::max(1, num_reducers)));
}

Result<std::vector<InputSplit>> MakeBlockSplits(const hdfs::FileSystem& fs,
                                                const std::string& path) {
  SHADOOP_ASSIGN_OR_RETURN(hdfs::FileMeta meta, fs.GetFileMeta(path));
  std::vector<InputSplit> splits;
  splits.reserve(meta.blocks.size());
  for (size_t i = 0; i < meta.blocks.size(); ++i) {
    InputSplit split;
    split.blocks.push_back({path, i});
    split.estimated_bytes = meta.blocks[i].num_bytes;
    split.estimated_records = meta.blocks[i].num_records;
    splits.push_back(std::move(split));
  }
  return splits;
}

void ChargeAdmissionWait(double wait_ms, JobCost* cost, Counters* counters) {
  if (wait_ms <= 0) return;
  cost->admission_wait_ms += wait_ms;
  ++cost->admission_queued;
  counters->Increment("admission.queued");
  counters->Increment("admission.wait_ms",
                      static_cast<int64_t>(wait_ms + 0.5));
}

JobResult JobRunner::Run(const JobConfig& job) {
  if (admission_ == nullptr) {
    return RunAdmitted(job, cluster_.num_slots, /*backups_fit=*/true);
  }
  // Admission: blocks until the session's tenant has a free job slot
  // (FIFO within the tenant; other tenants' queues are independent) and
  // pins the tenant's deterministic lane share for the whole run. A
  // backup needs a second lane beside its primary, so a one-lane share
  // denies every backup.
  auto admit = admission_->AdmitJob(tenant_);
  if (!admit.ok()) {
    JobResult result;
    result.status = admit.status();
    return result;
  }
  std::unique_ptr<AdmissionController::JobTicket> ticket =
      std::move(admit).value();
  const int lanes =
      std::max(1, std::min(cluster_.num_slots, ticket->lane_share()));
  JobResult result = RunAdmitted(job, lanes, ticket->lane_share() >= 2);

  // Admission accounting rides on the result the same way the fault
  // counters do: JobCost fields always, Counters entries only when
  // nonzero, so un-contended runs stay byte-identical.
  ChargeAdmissionWait(ticket->sim_wait_ms(), &result.cost, &result.counters);
  // Release even for failed jobs: a job that aborted mid-phase still
  // held its slot (an aborted job's total_ms is 0, so it adds no
  // simulated backlog to the tenant's ledger).
  admission_->ReleaseJob(ticket.get(), result.cost.total_ms);
  return result;
}

JobResult JobRunner::RunAdmitted(const JobConfig& job, int lanes,
                                 bool backups_fit) {
  Stopwatch wall;
  JobResult result;
  result.cost.num_map_tasks = static_cast<int>(job.splits.size());
  const bool has_reduce = static_cast<bool>(job.reducer);
  const int num_reducers = has_reduce ? std::max(1, job.num_reducers) : 1;
  result.cost.num_reduce_tasks = has_reduce ? num_reducers : 0;

  if (!job.mapper) {
    result.status = Status::InvalidArgument("job '" + job.name +
                                            "' has no mapper");
    return result;
  }

  // ------------------------------------------------------------------
  // Map phase: each task runs as a sequence of attempts under the task
  // scheduler. Every attempt builds a fresh, private context; only the
  // committed attempt publishes it to `map_ctxs`, so a retried attempt
  // can never double-emit (DESIGN.md §9). The replicas each task's
  // attempts skip are counted per task, so concurrent jobs on one file
  // system never count each other's failovers.
  const size_t num_maps = job.splits.size();
  std::vector<std::unique_ptr<MapContextImpl>> map_ctxs(num_maps);
  std::vector<uint64_t> map_failovers(num_maps, 0);

  // Artifact caching is offered only on fully fault-free runs: any active
  // injector (scheduler or HDFS read faults) could otherwise be masked by
  // an artifact parsed before the fault fired. Block ids are resolved
  // once per job, one namenode lookup per file.
  const bool cache_enabled =
      fault_injector_ == nullptr && fs_->fault_injector() == nullptr;
  std::vector<std::vector<uint64_t>> split_block_ids;
  if (cache_enabled) {
    split_block_ids.resize(num_maps);
    std::unordered_map<std::string, std::vector<hdfs::BlockId>> file_ids;
    for (size_t i = 0; i < num_maps; ++i) {
      for (const BlockRef& block : job.splits[i].blocks) {
        auto it = file_ids.find(block.path);
        // Point lookup — no order observed.
        if (it == file_ids.end()) {  // lint:allow(unordered-iteration)
          auto ids = fs_->GetBlockIds(block.path);
          it = file_ids
                   .emplace(block.path,
                            ids.ok() ? std::move(ids).value()
                                     : std::vector<hdfs::BlockId>())
                   .first;
        }
        const std::vector<hdfs::BlockId>& ids = it->second;
        split_block_ids[i].push_back(
            block.block_index < ids.size() ? ids[block.block_index] : 0);
      }
    }
  }

  TaskScheduler map_sched(
      SchedulerOptions(job, cluster_, fault::TaskKind::kMap,
                       max_task_attempts_, backups_fit),
      fault_injector_);
  map_sched.RunTasks(
      num_maps, lanes, [&](size_t i, const AttemptInfo&) -> AttemptOutcome {
        const InputSplit& split = job.splits[i];
        auto ctx = std::make_unique<MapContextImpl>(split, num_reducers);
        ctx->set_partitioner(job.partitioner);
        if (cache_enabled) {
          ctx->set_artifact_cache(&artifact_cache_, split_block_ids[i]);
        }
        std::unique_ptr<Mapper> mapper = job.mapper();
        mapper->BeginSplit(*ctx);
        // The arena pins every block of the attempt, so record views stay
        // valid across the whole split — through EndSplit() — without any
        // per-record copies.
        hdfs::BlockArena arena;
        uint64_t bytes = 0;
        for (size_t ordinal = 0; ordinal < split.blocks.size(); ++ordinal) {
          const BlockRef& block = split.blocks[ordinal];
          auto payload = fs_->ReadBlockRaw(block.path, block.block_index,
                                           &map_failovers[i]);
          if (!payload.ok()) {
            // Transient: a replica may still be alive on retry.
            return {payload.status(), /*transient=*/true};
          }
          auto index = IndexRecords(ctx->artifact_cache(),
                                    ctx->block_cache_id(ordinal), **payload);
          if (!index.ok()) return {index.status(), /*transient=*/false};
          const hdfs::RecordIndex& record_index = **index;
          // Charged per block from the index: every record, plus one
          // newline byte each.
          bytes += record_index.bytes();
          ctx->acct_.records_processed += record_index.size();
          mapper->BeginBlock(ordinal, *ctx);
          mapper->MapBlock(
              arena.AddBlock(std::move(payload).value(), record_index), *ctx);
          if (ctx->failed()) break;
        }
        if (!ctx->failed()) mapper->EndSplit(*ctx);
        if (ctx->failed()) {
          // User-code failure: deterministic, retrying would repeat it.
          return {ctx->acct_.status, /*transient=*/false};
        }
        ctx->bytes_read_ = bytes;
        map_ctxs[i] = std::move(ctx);
        return {};
      });

  TaskScheduler reduce_sched(
      SchedulerOptions(job, cluster_, fault::TaskKind::kReduce,
                       max_task_attempts_, backups_fit),
      fault_injector_);

  auto finish_fault_accounting = [&] {
    result.cost.task_retries =
        map_sched.task_retries() + reduce_sched.task_retries();
    result.cost.speculative_launched =
        map_sched.speculative_launched() + reduce_sched.speculative_launched();
    result.cost.speculative_won =
        map_sched.speculative_won() + reduce_sched.speculative_won();
    result.cost.replica_failovers = static_cast<int64_t>(std::accumulate(
        map_failovers.begin(), map_failovers.end(), uint64_t{0}));
    result.cost.admission_preempted_specs =
        map_sched.backups_denied() + reduce_sched.backups_denied();
    // Counters appear only when nonzero, so fault-free runs (and the
    // golden parity suite) serialize byte-identically to the pre-fault
    // runtime.
    if (result.cost.task_retries > 0) {
      result.counters.Increment("fault.task_retries",
                                result.cost.task_retries);
    }
    if (result.cost.speculative_launched > 0) {
      result.counters.Increment("fault.speculative_launched",
                                result.cost.speculative_launched);
    }
    if (result.cost.speculative_won > 0) {
      result.counters.Increment("fault.speculative_won",
                                result.cost.speculative_won);
    }
    if (result.cost.replica_failovers > 0) {
      result.counters.Increment("fault.replica_failovers",
                                result.cost.replica_failovers);
    }
    if (result.cost.admission_preempted_specs > 0) {
      result.counters.Increment("admission.preempted_specs",
                                result.cost.admission_preempted_specs);
    }
  };

  if (!map_sched.ok()) {
    finish_fault_accounting();
    result.status = map_sched.MakeStatus();
    result.wall_ms = wall.ElapsedMillis();
    return result;
  }

  // Optional combiner: per map task, sort + group + combine each bucket
  // as the reduce phase does, then swap in the rebuilt shuffle buffer
  // (group keys are views into the old one).
  if (job.combiner) {
    ParallelFor(num_maps, lanes, [&](size_t i) {
      MapContextImpl& ctx = *map_ctxs[i];
      std::unique_ptr<Reducer> combiner = job.combiner();
      CombineContextImpl cc(&ctx.acct_);
      std::vector<ShuffleRef> run;
      for (auto& bucket : ctx.emitted_) {
        run.clear();
        for (const EmitSlice& s : bucket) {
          run.push_back(
              {ctx.buffer_.data() + s.offset, s.key_len, s.value_len});
        }
        SortRun(&run);
        std::vector<EmitSlice> combined;
        cc.bucket_ = &combined;
        ForEachGroup(run, [&](std::span<const ShuffleRef> refs,
                              std::span<const std::string_view> values) {
          cc.key_ = refs.front().key();
          ctx.acct_.records_processed += values.size();
          combiner->Reduce(cc.key_, values, cc);
        });
        bucket = std::move(combined);
      }
      ctx.buffer_ = std::move(cc.buffer_);
      ctx.emitted_bytes_ = cc.bytes_;
    });
    // A combiner's Fail() fails the job like a map task's, first task
    // first.
    for (const auto& ctx : map_ctxs) {
      if (ctx->acct_.status.ok()) continue;
      finish_fault_accounting();
      result.status = ctx->acct_.status;
      result.wall_ms = wall.ElapsedMillis();
      return result;
    }
  }

  // ------------------------------------------------------------------
  // Shuffle: each reducer gathers its bucket from every map task, in
  // map-task order, and sorts it, on the pool. Only references move; the
  // bytes stay in the map tasks' buffers, which outlive the reduce phase.
  // Each reduce input is sized once, from the bucket counts, so the
  // gather is linear in the number of pairs. Sorting once, before any
  // attempt runs, gives a retried reducer bit-identical input.
  uint64_t shuffle_bytes = 0;
  for (const auto& ctx : map_ctxs) shuffle_bytes += ctx->emitted_bytes_;
  std::vector<std::vector<ShuffleRef>> reduce_inputs(num_reducers);
  std::vector<uint64_t> reduce_input_bytes(num_reducers, 0);
  ParallelFor(static_cast<size_t>(num_reducers), lanes, [&](size_t r) {
    size_t pairs = 0;
    for (const auto& ctx : map_ctxs) pairs += ctx->emitted_[r].size();
    std::vector<ShuffleRef>& input = reduce_inputs[r];
    input.reserve(pairs);
    uint64_t bytes = 0;  // Local: the lanes' counters share a cache line.
    for (const auto& ctx : map_ctxs) {
      const char* base = ctx->buffer_.data();
      for (const EmitSlice& s : ctx->emitted_[r]) {
        input.push_back({base + s.offset, s.key_len, s.value_len});
        bytes += s.key_len + s.value_len;
      }
    }
    reduce_input_bytes[r] = bytes;
    SortRun(&input);
  });
  for (const auto& ctx : map_ctxs) ctx->emitted_.clear();

  // ------------------------------------------------------------------
  // Reduce phase, under the same attempt scheduler as the map phase.
  std::vector<std::unique_ptr<ReduceContextImpl>> reduce_ctxs(num_reducers);
  if (has_reduce) {
    reduce_sched.RunTasks(
        static_cast<size_t>(num_reducers), lanes,
        [&](size_t r, const AttemptInfo&) -> AttemptOutcome {
          auto ctx = std::make_unique<ReduceContextImpl>();
          std::unique_ptr<Reducer> reducer = job.reducer();
          ctx->acct_.records_processed += reduce_inputs[r].size();
          ReduceSortedRun(reduce_inputs[r], *reducer, *ctx);
          if (!ctx->acct_.status.ok()) {
            return {ctx->acct_.status, /*transient=*/false};
          }
          reduce_ctxs[r] = std::move(ctx);
          return {};
        });
    if (!reduce_sched.ok()) {
      finish_fault_accounting();
      result.status = reduce_sched.MakeStatus();
      result.wall_ms = wall.ElapsedMillis();
      return result;
    }
  } else {
    // Map-only job: emitted pairs (if any) pass through as pair rows.
    for (int r = 0; r < num_reducers; ++r) {
      reduce_ctxs[r] = std::make_unique<ReduceContextImpl>();
      reduce_ctxs[r]->rows_ = std::move(reduce_inputs[r]);
    }
  }

  // No task reads the shuffled pairs again: release them before the
  // output is assembled, unless pair rows point into the map buffers.
  reduce_inputs.clear();
  const bool has_pair_rows = std::any_of(
      reduce_ctxs.begin(), reduce_ctxs.end(),
      [](const auto& ctx) { return !ctx->rows_.empty(); });
  if (!has_pair_rows) {
    for (const auto& ctx : map_ctxs) std::string().swap(ctx->buffer_);
  }

  // ------------------------------------------------------------------
  // Assemble output and counters deterministically (task order), into
  // an output sized once.
  size_t output_lines = 0;
  for (const auto& ctx : map_ctxs) output_lines += ctx->output_.size();
  for (const auto& ctx : reduce_ctxs) output_lines += ctx->output_.size();
  result.output.reserve(output_lines);
  for (size_t i = 0; i < num_maps; ++i) {
    MapContextImpl& ctx = *map_ctxs[i];
    result.counters.MergeFrom(ctx.acct_.counters);
    for (std::string& line : ctx.output_) {
      result.output.push_back(std::move(line));
    }
  }
  result.pair_rows.reserve(reduce_ctxs.size());
  for (std::unique_ptr<ReduceContextImpl>& ctx : reduce_ctxs) {
    result.counters.MergeFrom(ctx->acct_.counters);
    for (std::string& line : ctx->output_) {
      result.output.push_back(std::move(line));
    }
    result.pair_rows.emplace_back(std::move(ctx->rows_));
  }
  finish_fault_accounting();

  // ------------------------------------------------------------------
  // Deterministic simulated cost. Retries, backoff waits and straggler
  // delays show up as per-task overhead from the scheduler reports —
  // pure functions of the fault policy, independent of real scheduling.
  std::vector<double> map_costs;
  map_costs.reserve(num_maps);
  uint64_t total_read = 0;
  uint64_t map_output_bytes = 0;
  for (size_t i = 0; i < num_maps; ++i) {
    MapContextImpl& ctx = *map_ctxs[i];
    total_read += ctx.bytes_read_;
    map_output_bytes += ctx.output_bytes_;
    const double io_ms =
        static_cast<double>(ctx.bytes_read_) / cluster_.disk_bytes_per_ms +
        static_cast<double>(ctx.emitted_bytes_ + ctx.output_bytes_) /
            cluster_.disk_bytes_per_ms;
    map_costs.push_back(cluster_.task_startup_ms + io_ms +
                        CpuMs(cluster_, ctx.acct_) +
                        map_sched.reports()[i].sim_overhead_ms);
  }

  std::vector<double> reduce_costs;
  uint64_t reduce_output_bytes = 0;
  if (has_reduce) {
    reduce_costs.reserve(num_reducers);
    for (int r = 0; r < num_reducers; ++r) {
      reduce_output_bytes += reduce_ctxs[r]->output_bytes_;
      const double io_ms = static_cast<double>(reduce_input_bytes[r] +
                                               reduce_ctxs[r]->output_bytes_) /
                           cluster_.disk_bytes_per_ms;
      reduce_costs.push_back(cluster_.task_startup_ms + io_ms +
                             CpuMs(cluster_, reduce_ctxs[r]->acct_) +
                             reduce_sched.reports()[r].sim_overhead_ms);
    }
  }

  result.cost.bytes_read = total_read;
  result.cost.bytes_shuffled = shuffle_bytes;
  result.cost.bytes_written = map_output_bytes + reduce_output_bytes;
  result.cost.map_makespan_ms = Makespan(map_costs, lanes);
  result.cost.shuffle_ms =
      static_cast<double>(shuffle_bytes) / cluster_.net_bytes_per_ms;
  result.cost.reduce_makespan_ms = Makespan(reduce_costs, lanes);
  result.cost.total_ms = cluster_.job_startup_ms + result.cost.map_makespan_ms +
                         result.cost.shuffle_ms +
                         result.cost.reduce_makespan_ms;
  // The contexts themselves, not their buffers, move into the result: a
  // buffer's bytes may live inline in its string.
  if (has_pair_rows) {
    result.pair_row_buffers =
        std::make_shared<std::vector<std::unique_ptr<MapContextImpl>>>(
            std::move(map_ctxs));
  }
  result.wall_ms = wall.ElapsedMillis();
  result.status = Status::OK();
  return result;
}

}  // namespace shadoop::mapreduce
