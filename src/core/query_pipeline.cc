#include "core/query_pipeline.h"

#include <algorithm>
#include <cmath>

#include "geometry/wkt.h"

namespace shadoop::core {
namespace {

/// The CPU charge of one run of a point-merge algorithm over n points.
uint64_t PointMergeOps(size_t n) {
  return static_cast<uint64_t>(
      n > 1 ? n * std::log2(static_cast<double>(n)) * 20 : n);
}

class PointMergeMapper : public PartitionMapper {
 public:
  explicit PointMergeMapper(const PointMerge& merge)
      : PartitionMapper(index::ShapeType::kPoint, /*parse_extent=*/false),
        merge_(merge) {}

 protected:
  void Process(const SplitExtent& extent, SpatialRecordReader& reader,
               mapreduce::MapContext& ctx) override {
    (void)extent;
    std::vector<Point> points = reader.Points();
    ctx.ChargeCpu(PointMergeOps(points.size()));
    for (const Point& p : merge_.algorithm(std::move(points))) {
      ctx.Emit(merge_.key, PointToCsv(p));
    }
    ctx.counters().Increment(
        std::string(merge_.counter_prefix) + ".bad_records",
        static_cast<int64_t>(reader.bad_records()));
  }

 private:
  PointMerge merge_;
};

class PointMergeReducer : public mapreduce::Reducer {
 public:
  explicit PointMergeReducer(const PointMerge& merge) : merge_(merge) {}

  void Reduce(std::string_view key, std::span<const std::string_view> values,
              mapreduce::ReduceContext& ctx) override {
    (void)key;
    std::vector<Point> points;
    points.reserve(values.size());
    for (std::string_view value : values) {
      auto p = ParsePointCsv(value);
      if (p.ok()) points.push_back(p.value());
    }
    ctx.ChargeCpu(PointMergeOps(points.size()));
    for (const Point& p : merge_.algorithm(std::move(points))) {
      ctx.Write(PointToCsv(p));
    }
  }

 private:
  PointMerge merge_;
};

}  // namespace

// ---------------------------------------------------------------------
// PartitionMapper

void PartitionMapper::BeginSplit(mapreduce::MapContext& ctx) {
  if (!parse_extent_) return;
  auto extent = ParseSplitExtent(ctx.split().meta);
  if (!extent.ok()) {
    ctx.Fail(extent.status());
    failed_ = true;
    return;
  }
  extent_ = extent.value();
}

void PartitionMapper::BeginBlock(size_t ordinal,
                                 mapreduce::MapContext& ctx) {
  // Artifact sharing is per single block: only a one-block split makes
  // the reader's content exactly one block.
  if (ordinal == 0 && ctx.split().blocks.size() == 1) {
    reader_.AttachCache(ctx.artifact_cache(), ctx.block_cache_id(0));
  }
}

void PartitionMapper::Map(std::string_view record,
                          mapreduce::MapContext& ctx) {
  (void)ctx;
  reader_.AddBorrowed(record);
}

void PartitionMapper::MapBlock(const hdfs::BlockRecords& block,
                               mapreduce::MapContext& ctx) {
  (void)ctx;
  // Record views stay valid through EndSplit (the runner pins the block
  // bytes for the whole attempt), so buffering borrows — no copy.
  reader_.AddBlock(block);
}

void PartitionMapper::EndSplit(mapreduce::MapContext& ctx) {
  if (failed_) return;
  Process(extent_, reader_, ctx);
}

// ---------------------------------------------------------------------
// PairPartitionMapper

void PairPartitionMapper::BeginSplit(mapreduce::MapContext& ctx) {
  if (!parse_extents_) return;
  const std::string& meta = ctx.split().meta;
  const size_t bar = meta.find('|');
  if (bar == std::string::npos) {
    ctx.Fail(Status::ParseError("bad pair-split meta"));
    failed_ = true;
    return;
  }
  auto a = ParseSplitExtent(meta.substr(0, bar));
  auto b = ParseSplitExtent(meta.substr(bar + 1));
  if (!a.ok() || !b.ok()) {
    ctx.Fail(a.ok() ? b.status() : a.status());
    failed_ = true;
    return;
  }
  extent_a_ = a.value();
  extent_b_ = b.value();
}

void PairPartitionMapper::BeginBlock(size_t ordinal,
                                     mapreduce::MapContext& ctx) {
  in_a_ = ordinal == 0;
  // Each side's reader holds exactly one block in a two-block pair split,
  // so both can share artifacts; wider splits stay uncached.
  if (ordinal < 2 && ctx.split().blocks.size() == 2) {
    (in_a_ ? reader_a_ : reader_b_)
        .AttachCache(ctx.artifact_cache(), ctx.block_cache_id(ordinal));
  }
}

void PairPartitionMapper::Map(std::string_view record,
                              mapreduce::MapContext& ctx) {
  (void)ctx;
  (in_a_ ? reader_a_ : reader_b_).AddBorrowed(record);
}

void PairPartitionMapper::MapBlock(const hdfs::BlockRecords& block,
                                   mapreduce::MapContext& ctx) {
  (void)ctx;
  (in_a_ ? reader_a_ : reader_b_).AddBlock(block);
}

void PairPartitionMapper::EndSplit(mapreduce::MapContext& ctx) {
  if (failed_) return;
  Process(extent_a_, extent_b_, reader_a_, reader_b_, ctx);
}

// ---------------------------------------------------------------------
// SpatialJobBuilder

SpatialJobBuilder& SpatialJobBuilder::Name(std::string name) {
  name_ = std::move(name);
  return *this;
}

SpatialJobBuilder& SpatialJobBuilder::ScanFile(const std::string& path,
                                               std::string tag) {
  auto splits = mapreduce::MakeBlockSplits(*runner_->file_system(), path);
  if (!splits.ok()) {
    if (status_.ok()) status_ = splits.status();
    return *this;
  }
  for (mapreduce::InputSplit& split : splits.value()) {
    if (!tag.empty()) split.meta = tag;
    splits_.push_back(std::move(split));
  }
  return *this;
}

SpatialJobBuilder& SpatialJobBuilder::ScanIndexed(
    const index::SpatialFileInfo& file, const FilterFunction& filter) {
  auto splits = SpatialSplits(file, filter ? filter : KeepAllFilter);
  if (!splits.ok()) {
    if (status_.ok()) status_ = splits.status();
    return *this;
  }
  return AddSplits(std::move(splits).value());
}

SpatialJobBuilder& SpatialJobBuilder::ScanPartitionPairs(
    const index::SpatialFileInfo& a, const index::SpatialFileInfo& b,
    const std::vector<std::pair<int, int>>& pairs) {
  auto splits = PairSplits(a, b, pairs);
  if (!splits.ok()) {
    if (status_.ok()) status_ = splits.status();
    return *this;
  }
  return AddSplits(std::move(splits).value());
}

SpatialJobBuilder& SpatialJobBuilder::AddSplit(mapreduce::InputSplit split) {
  splits_.push_back(std::move(split));
  return *this;
}

SpatialJobBuilder& SpatialJobBuilder::AddSplits(
    std::vector<mapreduce::InputSplit> splits) {
  splits_.insert(splits_.end(), std::make_move_iterator(splits.begin()),
                 std::make_move_iterator(splits.end()));
  return *this;
}

SpatialJobBuilder& SpatialJobBuilder::Map(mapreduce::MapperFactory mapper) {
  mapper_ = std::move(mapper);
  return *this;
}

SpatialJobBuilder& SpatialJobBuilder::Combine(
    mapreduce::ReducerFactory combiner) {
  combiner_ = std::move(combiner);
  return *this;
}

SpatialJobBuilder& SpatialJobBuilder::Reduce(mapreduce::ReducerFactory reducer,
                                             int num_reducers) {
  reducer_ = std::move(reducer);
  num_reducers_ = num_reducers;
  parallel_merge_ = false;
  return *this;
}

SpatialJobBuilder& SpatialJobBuilder::ParallelMerge(
    mapreduce::ReducerFactory reducer) {
  reducer_ = std::move(reducer);
  parallel_merge_ = true;
  return *this;
}

Result<mapreduce::JobResult> SpatialJobBuilder::Run(OpStats* stats) {
  SHADOOP_RETURN_NOT_OK(status_);
  if (!mapper_) {
    return Status::InvalidArgument("job '" + name_ + "' has no mapper");
  }
  mapreduce::JobConfig job;
  job.name = name_;
  job.splits = std::move(splits_);
  job.mapper = mapper_;
  job.combiner = combiner_;
  job.reducer = reducer_;
  if (parallel_merge_) {
    // Round 1 of the two-round merge: one reducer per ~4 partitions so no
    // single reducer absorbs every local result; the constant-key groups
    // are spread round-robin (each map task cycles its emissions).
    job.num_reducers = std::min<int>(
        runner_->cluster().num_slots,
        std::max<int>(1, static_cast<int>(job.splits.size()) / 4));
    int counter = 0;
    job.partitioner = [counter](std::string_view, int reducers) mutable {
      return counter++ % reducers;
    };
  } else {
    job.num_reducers = num_reducers_;
  }
  mapreduce::JobResult result = runner_->Run(job);
  SHADOOP_RETURN_NOT_OK(result.status);
  if (stats != nullptr) stats->Accumulate(result);
  return result;
}

// ---------------------------------------------------------------------
// Two-round point merge

Result<std::vector<Point>> RunPointMerge(SpatialJobBuilder& builder,
                                         const PointMerge& merge,
                                         const char* job_name,
                                         const index::SpatialFileInfo* indexed,
                                         OpStats* stats) {
  if (indexed != nullptr && stats != nullptr && builder.plan_status().ok()) {
    const std::string prefix = merge.counter_prefix;
    stats->counters.Increment(prefix + ".partitions_processed",
                              static_cast<int64_t>(builder.NumSplits()));
    stats->counters.Increment(
        prefix + ".partitions_pruned",
        static_cast<int64_t>(indexed->global_index.NumPartitions() -
                             builder.NumSplits()));
  }
  SHADOOP_ASSIGN_OR_RETURN(
      mapreduce::JobResult result,
      builder.Name(job_name)
          .Map([merge]() { return std::make_unique<PointMergeMapper>(merge); })
          .ParallelMerge(
              [merge]() { return std::make_unique<PointMergeReducer>(merge); })
          .Run(stats));
  std::vector<Point> candidates;
  candidates.reserve(result.output.size());
  for (const std::string& line : result.output) {
    SHADOOP_ASSIGN_OR_RETURN(Point p, ParsePointCsv(line));
    candidates.push_back(p);
  }
  return merge.algorithm(std::move(candidates));
}

}  // namespace shadoop::core
