#include "core/aggregate_op.h"

#include <memory>

#include "common/string_util.h"
#include "core/query_pipeline.h"

namespace shadoop::core {
namespace {

using mapreduce::JobResult;
using mapreduce::MapContext;

/// Counts matching records in one split, with optional reference-point
/// deduplication (same rule as the range query) against the extent the
/// base mapper decodes.
class CountMapper : public PartitionMapper {
 public:
  CountMapper(index::ShapeType shape, Envelope query, bool deduplicate)
      : PartitionMapper(shape, /*parse_extent=*/deduplicate),
        query_(query),
        deduplicate_(deduplicate) {}

 protected:
  void Process(const SplitExtent& extent, SpatialRecordReader& reader,
               MapContext& ctx) override {
    const bool right = extent.cell.max_x() >= extent.file_mbr.max_x();
    const bool top = extent.cell.max_y() >= extent.file_mbr.max_y();
    int64_t count = 0;
    int64_t bad = 0;
    for (size_t i = 0; i < reader.NumRecords(); ++i) {
      const Envelope* env = reader.EnvelopeAt(i);
      if (env == nullptr) {
        ++bad;
        continue;
      }
      if (!env->Intersects(query_)) continue;
      if (deduplicate_ &&
          !extent.cell.ContainsHalfOpen(
              env->Intersection(query_).BottomLeft(), right, top)) {
        continue;
      }
      ++count;
    }
    if (bad > 0) ctx.counters().Increment("count.bad_records", bad);
    ctx.Emit("C", std::to_string(count));
  }

 private:
  Envelope query_;
  bool deduplicate_;
};

class SumReducer : public mapreduce::Reducer {
 public:
  void Reduce(std::string_view key, std::span<const std::string_view> values,
              mapreduce::ReduceContext& ctx) override {
    (void)key;
    int64_t total = 0;
    for (std::string_view value : values) {
      auto v = ParseInt64(value);
      if (!v.ok()) {
        ctx.Fail(v.status());
        return;
      }
      total += v.value();
    }
    ctx.Write(std::to_string(total));
  }
};

Result<int64_t> RunCountJob(SpatialJobBuilder& builder, index::ShapeType shape,
                            const Envelope& query, bool deduplicate,
                            OpStats* stats) {
  SHADOOP_RETURN_NOT_OK(builder.plan_status());
  // Every partition pruned (or the file is empty): the count is known
  // without running a job.
  if (builder.NumSplits() == 0) return static_cast<int64_t>(0);
  SHADOOP_ASSIGN_OR_RETURN(
      JobResult result,
      builder.Name("range-count")
          .Map([shape, query, deduplicate]() {
            return std::make_unique<CountMapper>(shape, query, deduplicate);
          })
          .Reduce([]() { return std::make_unique<SumReducer>(); })
          .Run(stats));
  if (result.output.size() != 1) {
    return Status::Internal("range-count job produced no total");
  }
  return ParseInt64(result.output.front());
}

}  // namespace

Result<int64_t> RangeCountHadoop(mapreduce::JobRunner* runner,
                                 const std::string& path,
                                 index::ShapeType shape, const Envelope& query,
                                 OpStats* stats) {
  SpatialJobBuilder builder(runner);
  builder.ScanFile(path);
  return RunCountJob(builder, shape, query, /*deduplicate=*/false, stats);
}

Result<int64_t> RangeCountSpatial(mapreduce::JobRunner* runner,
                                  const index::SpatialFileInfo& file,
                                  const Envelope& query, OpStats* stats) {
  const index::GlobalIndex& gi = file.global_index;
  // Replicated storage (extended shapes on a disjoint index) cannot use
  // the per-partition counts: a record may be counted by several
  // partitions. Points are stored exactly once everywhere.
  const bool replicated = gi.IsDisjoint() &&
                          file.shape != index::ShapeType::kPoint;

  int64_t metadata_count = 0;
  std::vector<int> boundary;
  for (const index::Partition& p : gi.partitions()) {
    if (!p.mbr.Intersects(query)) continue;
    if (!replicated && query.Contains(p.mbr)) {
      // Fully covered: answered from the master file, no I/O.
      metadata_count += static_cast<int64_t>(p.num_records);
    } else {
      boundary.push_back(p.id);
    }
  }
  if (stats != nullptr) {
    stats->counters.Increment("count.metadata_partitions",
                              static_cast<int64_t>(
                                  gi.NumPartitions() - boundary.size()));
    stats->counters.Increment("count.scanned_partitions",
                              static_cast<int64_t>(boundary.size()));
  }

  SpatialJobBuilder builder(runner);
  builder.ScanIndexed(
      file, [&boundary](const index::GlobalIndex&) { return boundary; });
  SHADOOP_ASSIGN_OR_RETURN(
      int64_t scanned_count,
      RunCountJob(builder, file.shape, query,
                  /*deduplicate=*/gi.IsDisjoint(), stats));
  return metadata_count + scanned_count;
}

}  // namespace shadoop::core
